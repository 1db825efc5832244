package stats

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/backend"
)

// Program is a compiled STATS program — the back-end's specialized
// "binary": the instantiated module plus its resolved constants, type
// bindings, callees and per-dependence engine options.
type Program = backend.Program

// VerifyProgram re-runs the statsvet analysis passes (the IR verifier, the
// effect/purity dataflow and the tradeoff lints) over a compiled program's
// module and returns an error listing every error-severity finding: a
// module whose auxiliary code escapes its declared effect footprint would
// otherwise be caught only at run time, one validation mismatch at a time,
// as aborts and squashed work. It is a check and stores nothing.
func VerifyProgram(p *Program) error {
	if p == nil || p.Module == nil {
		return fmt.Errorf("stats: VerifyProgram: nil program")
	}
	if err := analysis.Check(p.Module); err != nil {
		return fmt.Errorf("stats: unverified program: %w", err)
	}
	return nil
}
