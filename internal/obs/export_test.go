package obs

// Lanes returns the tracer's lane count (0 for a nil tracer).
func (t *Tracer) Lanes() int {
	if t == nil {
		return 0
	}
	return len(t.rings)
}
