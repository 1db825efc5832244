package core

// Streaming commit: outputs are delivered, in input order, the moment they
// stop being speculative (§3.1: "When these checks succeed, the additional
// TLP generated can be safely used") instead of materializing only when
// the whole input vector has been processed. A downstream consumer can
// therefore overlap with the dependence's tail — the natural next step for
// the long-data-stream applications §4.8 identifies as STATS's best fit.

// Emit receives committed outputs in input order. It is called from the
// goroutine that called RunStream only (never concurrently), once outputs
// are final: a group's outputs after the next boundary's validation has
// resolved (until then a re-execution may still splice the group's suffix),
// the last group's at run completion, and fallback outputs as they compute.
// Boundaries resolve on the lanes; a lane never calls Emit — under
// ProtocolAux the resolver publishes how far the outputs are final and
// wakes the caller's goroutine, which emits the newly final prefix. A run
// without an Emit pays none of this.
type Emit[O any] func(index int, output O)

// RunStream behaves like Run but additionally delivers each output through
// emit as soon as it commits. The returned values are identical to Run's.
func (d *Dependence[I, S, O]) RunStream(inputs []I, initial S, opts Options, emit Emit[O]) ([]O, S, Stats) {
	return d.runAll(inputs, initial, opts, emit)
}

// RunStreamChecked is RunStream with sequential-path panics (including any
// raised inside emit) converted to a *PanicError instead of propagating,
// mirroring RunChecked. Outputs emitted before the panic stand; the
// returned slices reflect only work that committed.
func (d *Dependence[I, S, O]) RunStreamChecked(inputs []I, initial S, opts Options, emit Emit[O]) (outs []O, final S, st Stats, err error) {
	if pe := contain(func() { outs, final, st = d.runAll(inputs, initial, opts, emit) }); pe != nil {
		err = pe
	}
	return outs, final, st, err
}
