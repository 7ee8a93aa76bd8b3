package berkmin

import "errors"

// Typed sentinel errors of the public API. They are returned (never
// panicked) by the error-reporting entry points — AddClause, AddFormula,
// SolveContext, SolveAssumingContext, SolveParallelContext — and are
// designed to be matched with errors.Is so callers (e.g. an HTTP server)
// can map each failure class to its own response.
var (
	// ErrInvalidLiteral: a clause or assumption contained literal 0, which
	// terminates clauses in DIMACS and cannot appear inside one, or a
	// literal whose variable exceeds cnf.MaxDimacsVar (2³⁰−1), the largest
	// a literal can encode.
	ErrInvalidLiteral = errors.New("berkmin: literal is 0 or out of range")

	// ErrSolverDead: the formula is already unsatisfiable at level 0 (an
	// empty clause was derived), so the clause cannot constrain anything
	// further. The add is recorded for model bookkeeping but the verdict
	// of every future solve is fixed at UNSAT.
	ErrSolverDead = errors.New("berkmin: formula is already unsatisfiable")

	// ErrBudgetExhausted: the solve stopped on one of the solver's own
	// configured resource budgets (Options.MaxConflicts or MaxTime) before
	// reaching an answer.
	ErrBudgetExhausted = errors.New("berkmin: resource budget exhausted")

	// ErrDeadline: the solve stopped because the context's deadline
	// expired before an answer was reached.
	ErrDeadline = errors.New("berkmin: deadline exceeded")

	// ErrCanceled: the solve stopped because the context was canceled.
	ErrCanceled = errors.New("berkmin: canceled")

	// ErrInterrupted: the solve stopped on an explicit Interrupt call (as
	// opposed to context cancellation, which reports ErrCanceled or
	// ErrDeadline).
	ErrInterrupted = errors.New("berkmin: interrupted")
)
