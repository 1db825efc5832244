package stats

import "repro/internal/core"

// Committed is one streamed output: its input index and value.
type Committed[O any] struct {
	Index  int
	Output O
}

// RunStream executes the dependence and calls emit, in input order, the
// moment each output stops being speculative (§3.1's commit points): a
// group's outputs when the next boundary's validation resolves, the last
// group's at completion, fallback outputs as they compute. emit runs on
// the calling goroutine, never on a lane — keep it light or hand off to a
// channel.
func (sd *StateDependence[I, S, O]) RunStream(emit func(index int, output O)) ([]O, S, RunStats) {
	return sd.dep().RunStream(sd.inputs, sd.initial, sd.coreOptions(), core.Emit[O](emit))
}

// StartStream begins execution in the background and returns a channel of
// committed outputs (closed when the run finishes) plus a join function
// returning the final results. The channel is buffered to the input
// count, so the runtime never blocks on a slow consumer.
//
// Fault isolation: speculative-lane panics in user code are contained by
// the engine (RunStats.PanickedGroups); a panic with no safe fallback left
// — the sequential path, or the consumer's own code reached through the
// commit channel — is contained too, by RunStreamChecked, rather than
// crashing the process with the channel open. The channel always closes,
// and join reports the failure as a *PanicError.
func (sd *StateDependence[I, S, O]) StartStream() (<-chan Committed[O], func() ([]O, S, RunStats, error)) {
	ch := make(chan Committed[O], len(sd.inputs))
	type result struct {
		outs  []O
		final S
		st    RunStats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		var r result
		r.outs, r.final, r.st, r.err = sd.dep().RunStreamChecked(sd.inputs, sd.initial, sd.coreOptions(), func(i int, o O) {
			ch <- Committed[O]{Index: i, Output: o}
		})
		close(ch)
		done <- r
	}()
	return ch, func() ([]O, S, RunStats, error) {
		r := <-done
		return r.outs, r.final, r.st, r.err
	}
}
