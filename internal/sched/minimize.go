package sched

// Minimize is the schedule-shrinking unit: given a failing trace and a
// predicate that replays a candidate trace and reports whether the original
// failure still reproduces, it delta-debugs (ddmin) the entry sequence down
// to a locally minimal schedule. Replay semantics make deletion sound —
// entries removed from the trace simply relax ordering constraints (the
// affected admissions run unconstrained) rather than wedging the run — so
// the minimized trace is a strictly weaker schedule that still provokes
// the bug, which is what a human wants to read when debugging.

// Minimize returns a 1-minimal subsequence of t.Entries that still
// satisfies fails. fails must be deterministic (replay-driven); it is
// never called on the empty candidate unless t itself is empty, and the
// original trace is returned unchanged if it does not fail. The result
// shares no entry storage with t.
func Minimize(t *Trace, fails func(*Trace) bool) *Trace {
	cur := append([]Entry(nil), t.Entries...)
	mk := func(es []Entry) *Trace {
		return &Trace{
			Seed:       t.Seed,
			Controller: t.Controller,
			Note:       t.Note,
			Entries:    append([]Entry(nil), es...),
		}
	}
	if len(cur) == 0 || !fails(mk(cur)) {
		return mk(cur)
	}

	n := 2
	for len(cur) >= 2 {
		chunk := (len(cur) + n - 1) / n
		reduced := false

		// Try removing each chunk (complement test first: keeping the
		// complement is the reduction ddmin cares about at n=2 too).
		for start := 0; start < len(cur); start += chunk {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			cand := make([]Entry, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			if len(cand) > 0 && fails(mk(cand)) {
				cur = cand
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if reduced {
			continue
		}
		if n >= len(cur) {
			break // 1-minimal: no single entry can be removed
		}
		n = min(2*n, len(cur))
	}
	return mk(cur)
}
