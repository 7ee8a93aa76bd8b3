package berkmin

import (
	"context"
	"errors"
	"time"

	"berkmin/internal/cnf"
	"berkmin/internal/conc"
	"berkmin/internal/cube"
)

// Context-first solving. SolveContext and SolveAssumingContext are the
// cancellation-aware counterparts of Solve and SolveAssuming: the context's
// deadline and cancellation are mapped onto the solver's Interrupt
// mechanism (the same plumbing Interrupt exposes directly), and are honored
// during preprocessing as well as search. Preprocessing (SetSimplify) polls
// for the fired context on its first budget check and on every 2048th
// after it, checking once per clause while loading; the initial
// propagation always runs to completion. Once the poll sees the context
// fired, preprocessing winds down with an equisatisfiable formula. Plain
// Solve/SolveAssuming remain fully supported; nothing is deprecated.
//
// The returned error classifies a StatusUnknown result: nil for a
// definitive answer, ErrDeadline / ErrCanceled when the context fired,
// ErrBudgetExhausted when one of the solver's own Options budgets ran out,
// ErrInterrupted for an explicit Interrupt call. The Result is returned
// alongside the error either way, so callers keep the Stats (and StopReason)
// of the cut-short run.
//
// The context variants own the interrupt flag: when the context fires they
// set it, and they clear it again before returning, so the solver — and in
// particular a Pool-recycled solver — remains usable for the next call. Do
// not mix a concurrent manual Interrupt with a context-canceled solve on
// the same solver: the flag cannot distinguish the two owners.

// SolveContext runs the search, stopping early when ctx is canceled or its
// deadline expires. See the package comment above for the error contract.
func (s *Solver) SolveContext(ctx context.Context) (Result, error) {
	return s.runWithContext(ctx, func() Result {
		s.preprocess()
		return s.finishResult(s.solveCore(s.core.Solve))
	})
}

// SolveAssumingContext is SolveAssuming with context cancellation, and
// reports ErrInvalidLiteral (instead of panicking) on a zero or
// out-of-range assumption literal.
func (s *Solver) SolveAssumingContext(ctx context.Context, lits ...int) (Result, error) {
	assumps := make([]cnf.Lit, len(lits))
	for i, l := range lits {
		if !cnf.ValidDimacs(l) {
			return Result{Status: StatusUnknown}, ErrInvalidLiteral
		}
		assumps[i] = cnf.FromDimacs(l)
	}
	return s.runWithContext(ctx, func() Result {
		s.preprocess()
		for _, a := range assumps {
			s.restore(a.Var())
		}
		return s.finishResult(s.solveCore(func() Result { return s.core.SolveAssuming(assumps) }))
	})
}

// runWithContext runs one solve with ctx.Done mapped onto core Interrupt.
// The watch is always ended before returning, and a fired interrupt is
// cleared, so a late-firing context can never leave a stale sticky
// interrupt behind (the reusability guarantee Pool.Put relies on).
func (s *Solver) runWithContext(ctx context.Context, search func() Result) (Result, error) {
	if err := ctx.Err(); err != nil {
		// Already expired: report without touching the solver, so its
		// state (and any attached proof trace) is exactly as before.
		return Result{Status: StatusUnknown, Stop: StopInterrupted}, ctxSentinel(err)
	}
	stop := conc.OnDone(ctx, s.core.Interrupt)
	r := search()
	if stop() {
		s.core.ClearInterrupt()
	}
	return r, stopError(r.Stop, ctx)
}

// stopError maps a StopReason (plus the context, when one was in play) to
// the public sentinel errors.
func stopError(stop StopReason, ctx context.Context) error {
	switch stop {
	case StopConflicts, StopTime:
		return ErrBudgetExhausted
	case StopInterrupted:
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return ctxSentinel(err)
			}
		}
		return ErrInterrupted
	default:
		return nil
	}
}

// ctxSentinel maps a non-nil context error to the matching sentinel.
func ctxSentinel(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrDeadline
	}
	return ErrCanceled
}

// SolveParallelContext is SolveParallel with context cancellation: when ctx
// fires, preprocessing stops at its next poll (see the package comment
// above), every portfolio member is interrupted, and the call returns
// promptly with the matching sentinel error. The error contract is the
// same as SolveContext's.
func SolveParallelContext(ctx context.Context, f *Formula, opt ParallelOptions) (ParallelResult, error) {
	return engineSolver(f, opt.MaxTime, opt.Simplify, nil).solveParallel(ctx, opt)
}

// SolveCubesContext is SolveCubes with context cancellation: when ctx
// fires, preprocessing stops at its next poll (see the package comment
// above), the cuber at its next node, every conquer worker is
// interrupted, and the call returns promptly with the matching sentinel
// error. The error contract is the same as SolveContext's.
func SolveCubesContext(ctx context.Context, f *Formula, opt CubeOptions) (CubeResult, error) {
	s := engineSolver(f, opt.MaxTime, opt.Simplify, opt.Proof)
	var cr cube.Result
	r, err := s.solveEngine(ctx, opt.MaxTime, func(maxTime time.Duration) Result {
		// The front end's core becomes conquer worker 0.
		cr = cube.SolveContext(ctx, s.core, cube.Options{
			Jobs:     opt.Jobs,
			MaxCubes: opt.MaxCubes,
			Conquer:  opt.Config,
			MaxTime:  maxTime,
			BaseSeed: opt.Seed,
			Proof:    opt.Proof,
		})
		return Result{Status: cr.Status, Stop: cr.Stop, Model: cr.Model, Stats: Stats{
			Conflicts:       cr.Conflicts,
			ExportedClauses: cr.Shared,
			Runtime:         cr.Runtime,
		}}
	})
	return CubeResult{Result: r, Cubes: cr.Cubes, Refuted: cr.Refuted, Solved: cr.Solved, Steals: cr.Steals}, err
}

// SolveParallelContext races the snapshot's portfolio under a context; see
// SolveParallelContext (package level) for the error contract.
func (sn *Snapshot) SolveParallelContext(ctx context.Context, opt ParallelOptions) (ParallelResult, error) {
	return sn.base.solveParallel(ctx, opt)
}
