package berkmin

import (
	"berkmin/internal/simplify"
)

// SimplifyOptions configures the preprocessor's proof trace (Proof). The
// passes and their bounds are fixed; to SetSimplify the value is only an
// on switch, since the solver supplies the trace from SetProofWriter.
type SimplifyOptions = simplify.Options

// SimplifyOutcome is a preprocessing result; solve Outcome.Formula and
// reconstruct a model of the original with Outcome.Extend.
type SimplifyOutcome = simplify.Outcome

// DefaultSimplifyOptions returns the zero SimplifyOptions: no proof trace.
var DefaultSimplifyOptions = simplify.DefaultOptions

// Simplify preprocesses a CNF: unit propagation, tautology removal,
// subsumption, self-subsuming resolution and bounded variable elimination
// (an extension beyond the paper; BerkMin's own §8 level-0 simplification
// is built into the solver). The input formula is not modified.
//
// This standalone entry point suits one-shot pipelines; Solver.SetSimplify
// integrates the same machinery with the engine (deferred preprocessing,
// automatic model reconstruction, DRUP proof continuity and restoration of
// eliminated variables under incremental use), and SolveParallel's
// Simplify option does the same for the portfolio.
func Simplify(f *Formula, opt SimplifyOptions) *SimplifyOutcome {
	return simplify.Simplify(f, opt)
}
