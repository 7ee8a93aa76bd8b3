// Package berkmin is a from-scratch Go implementation of BerkMin, the
// conflict-driven clause-learning SAT solver of E. Goldberg and Y. Novikov
// ("BerkMin: A Fast and Robust Sat-Solver", DATE 2002).
//
// The solver implements the paper's decision-making procedure (branching on
// the current top conflict clause, responsible-clause variable activities,
// literal-activity branch polarity, the nb_two cost function), its clause
// database management (young/old partition by stack age with length and
// activity keep rules), restarts, and two-watched-literal BCP — plus every
// ablation and baseline configuration the paper measures (Less_sensitivity,
// Less_mobility, the Table 4 polarity heuristics, Limited_keeping, a
// zChaff-like VSIDS configuration and a limmat-like configuration).
//
// Quick start:
//
//	s := berkmin.New()
//	s.AddClause(1, -2)   // x1 ∨ ¬x2
//	s.AddClause(2, 3)    // x2 ∨ x3
//	res := s.Solve()
//	if res.Status == berkmin.StatusSat {
//	    fmt.Println(res.Model[1], res.Model[2], res.Model[3])
//	}
//
// The package also exposes the paper's benchmark workload generators
// (pigeonhole, parity, Hanoi, blocksworld, circuit-equivalence miters,
// processor-verification-style instances, BMC unrollings) and DIMACS I/O,
// so downstream users can reproduce every table of the paper's evaluation
// — see cmd/satbench.
//
// Beyond the paper, SolveParallel runs a portfolio of diversified solver
// configurations concurrently (first definitive answer wins, losers are
// interrupted, short learnt clauses are exchanged between members) — the
// multi-core entry point; cmd/berkmin exposes it as -jobs N. SolveCubes
// splits one hard instance into cubes for a pool of workers.
//
// Every solve goes through the front-end Solver: it alone preprocesses,
// maps models back to the original variables, verifies them against the
// original formula, and charges preprocessing to MaxTime and Runtime.
// SolveParallel and SolveCubes load a throwaway Solver and run their
// engine on its core; a Snapshot is a frozen Solver whose clones serve
// pools and portfolios.
package berkmin

import (
	"context"
	"io"
	"time"

	"berkmin/internal/cnf"
	"berkmin/internal/core"
	"berkmin/internal/portfolio"
	"berkmin/internal/simplify"
)

// Options configures the solver. Zero value is unusable; start from
// DefaultOptions or a preset.
type Options = core.Options

// Status is a solver verdict.
type Status = core.Status

// Verdicts.
const (
	StatusUnknown = core.StatusUnknown
	StatusSat     = core.StatusSat
	StatusUnsat   = core.StatusUnsat
)

// Stats aggregates search statistics (decisions, conflicts, restarts, the
// skin-effect histogram, database-size ratios).
type Stats = core.Stats

// Result is the outcome of Solve: a Status, a Model when satisfiable
// (Model[v] is variable v's value; index 0 unused), and Stats.
type Result = core.Result

// Re-exported configuration presets; see the paper mapping in package core.
var (
	// DefaultOptions is BerkMin as published (the BerkMin56 configuration).
	DefaultOptions = core.DefaultOptions
	// LessSensitivityOptions is Table 1's ablation.
	LessSensitivityOptions = core.LessSensitivityOptions
	// LessMobilityOptions is Table 2's ablation.
	LessMobilityOptions = core.LessMobilityOptions
	// LimitedKeepingOptions is Table 5's ablation (GRASP-style database).
	LimitedKeepingOptions = core.LimitedKeepingOptions
	// ChaffOptions approximates zChaff (VSIDS).
	ChaffOptions = core.ChaffOptions
	// LimmatOptions approximates limmat (Table 10's third solver).
	LimmatOptions = core.LimmatOptions
	// InprocessingOptions is BerkMin with arena-native inprocessing
	// (subsumption, self-subsuming resolution, vivification at restart
	// boundaries) enabled — an extension beyond the paper.
	InprocessingOptions = core.InprocessingOptions
	// TieredOptions is BerkMin with the glue-aware three-tier learnt-clause
	// database, Luby restarts and phase saving — an extension beyond the
	// paper.
	TieredOptions = core.TieredOptions
	// EvsidsOptions replaces BerkMin branching with exponential VSIDS
	// (MiniSat-style float activities) — an extension beyond the paper.
	EvsidsOptions = core.EvsidsOptions
	// LrbOptions replaces BerkMin branching with the learning-rate-based
	// heuristic of MapleSAT — an extension beyond the paper.
	LrbOptions = core.LrbOptions
	// ModernOptions combines the tiered database, Luby restarts, phase
	// saving and EVSIDS branching — the solver's most contemporary profile.
	ModernOptions = core.ModernOptions
	// IncrementalOptions is the modern profile plus between-query heuristic
	// decay (Options.QueryDecay) — the profile for IC3/BMC query streams.
	IncrementalOptions = core.IncrementalOptions
)

// Solver is a CDCL SAT solver over DIMACS-style signed integer literals.
// Not safe for concurrent use.
type Solver struct {
	core     *core.Solver
	pristine *cnf.Formula // untouched copy of the input, for model checking
	verify   bool
	proofW   io.Writer
	maxTime  time.Duration // Options.MaxTime, also bounding preprocessing

	// Preprocessing state (SetSimplify). When enabled, clauses are held
	// back from the core engine until the first solve, which preprocesses
	// the accumulated formula and feeds the core the simplified form. The
	// outcome may be SHARED with sibling solvers derived from one Snapshot,
	// so all restoration and model reconstruction goes through the
	// solver-local view, never through the outcome directly.
	simp         *simplify.Options
	view         *simplify.View // nil until preprocessing ran
	fed          bool           // the core has received its (possibly simplified) input
	preSpent     time.Duration  // preprocessing time, charged to the first search's Runtime
	preRemaining time.Duration  // first search's reduced wall-clock budget (0 = nothing pending)
}

// New returns a Solver with the paper's default (BerkMin) configuration.
func New() *Solver { return NewWithOptions(DefaultOptions()) }

// NewWithOptions returns a Solver with the given configuration.
func NewWithOptions(opt Options) *Solver {
	return &Solver{core: core.New(opt), pristine: cnf.New(0), verify: true, maxTime: opt.MaxTime}
}

// SetVerifyModels controls whether Solve double-checks satisfying
// assignments against the original clauses before returning them (on by
// default; the check is linear in formula size).
func (s *Solver) SetVerifyModels(v bool) { s.verify = v }

// SetProofWriter directs a DRUP unsatisfiability proof to w; must be called
// before adding clauses. Validate the trace with CheckDRUP. Proof logging
// composes with SetSimplify: the preprocessor's additions and deletions are
// emitted first, so the combined trace verifies against the original
// formula. (Incremental use — adding clauses after a solve — is outside
// what a single DRUP trace can express, with or without simplification.)
func (s *Solver) SetProofWriter(w io.Writer) {
	s.proofW = w
	s.core.SetProofWriter(w)
}

// SetSimplify enables SatELite-style preprocessing (unit propagation,
// subsumption, self-subsuming resolution, bounded variable elimination) on
// the first Solve or SolveAssuming call; the search then runs on the
// simplified formula and satisfying assignments are mapped back to the
// original variables before being returned. Pass nil to disable. Must be
// called before any clause is added.
//
// Incremental solving remains fully supported: if a later AddClause or
// assumption mentions a variable that preprocessing eliminated, the
// variable's original clauses are transparently restored first.
func (s *Solver) SetSimplify(opt *SimplifyOptions) {
	if opt == nil {
		if s.simp != nil && !s.fed && s.pristine.NumClauses() > 0 {
			// Clauses were being held back for preprocessing; hand them to
			// the engine now that it is disabled. (With no clauses yet,
			// nothing was held back and re-enabling stays possible.)
			s.fed = true
			s.core.AddFormula(s.pristine)
		}
		s.simp = nil
		return
	}
	if s.pristine.NumClauses() > 0 || s.fed {
		panic("berkmin: SetSimplify must be called before adding clauses")
	}
	s.simp = opt
}

// AddClause adds a clause given as signed DIMACS literals (±v). A zero
// literal — which terminates clauses in DIMACS and cannot appear inside
// one — reports ErrInvalidLiteral and adds nothing. When unsatisfiability
// has already been established at level 0 the clause is recorded but can
// no longer constrain anything, which is reported as ErrSolverDead (the
// solver remains usable; every solve answers UNSAT). Both conditions were
// a panic and a silent no-op respectively before the error return.
func (s *Solver) AddClause(lits ...int) error {
	for _, l := range lits {
		if l == 0 {
			return ErrInvalidLiteral
		}
	}
	wasDead := s.core.Dead()
	c := cnf.NewClause(lits...)
	s.pristine.Add(c.Clone())
	s.feed(c)
	if wasDead {
		return ErrSolverDead
	}
	return nil
}

// AddFormula adds every clause of a formula (e.g. from ReadDimacs or a
// generator). Clauses go through the same ingestion gate as AddClause, and
// the error contract is AddClause's: ErrSolverDead when the solver was
// already dead (the clauses are recorded but cannot constrain anything).
func (s *Solver) AddFormula(f *Formula) error {
	wasDead := s.core.Dead()
	// The pristine copies of f's clauses share one backing array (full-cap
	// slices, so an append by any holder reallocates).
	n := 0
	for _, c := range f.Clauses {
		n += len(c)
	}
	lits := make(cnf.Clause, 0, n)
	for _, c := range f.Clauses {
		lits = append(lits, c...)
		s.pristine.Add(lits[len(lits)-len(c) : len(lits) : len(lits)])
		s.feed(c)
	}
	if f.NumVars > s.pristine.NumVars {
		s.pristine.NumVars = f.NumVars
	}
	if s.simp == nil || s.fed {
		// feed only sees clauses; register any variables beyond them.
		s.core.AddFormula(&cnf.Formula{NumVars: f.NumVars})
	}
	if wasDead {
		return ErrSolverDead
	}
	return nil
}

// feed hands one clause to the core engine — immediately when
// preprocessing is off or already done (restoring eliminated variables the
// clause mentions), deferred to the first solve otherwise.
func (s *Solver) feed(c cnf.Clause) {
	if s.simp != nil && !s.fed {
		return // held back until preprocess()
	}
	for _, l := range c {
		s.restore(l.Var())
	}
	s.core.AddClause(c)
}

// preprocess runs the simplifier over everything accumulated so far and
// feeds the core engine, once, at the first solve.
func (s *Solver) preprocess() {
	if s.fed {
		return
	}
	s.fed = true
	if s.simp == nil {
		return
	}
	opt := *s.simp
	opt.Proof = s.proofW
	// Preprocessing honors the solver's budget and Interrupt: it stops at
	// the next pass boundary (the partially simplified formula is still
	// equisatisfiable), so a timeout or cancellation is never stuck behind
	// an unbounded simplification; the time spent here is deducted from
	// the first search so MaxTime stays an end-to-end bound.
	out, spent, remaining := simplify.Run(s.pristine, opt, s.maxTime, s.core.Interrupted)
	s.view, s.preSpent, s.preRemaining = out.NewView(), spent, remaining
	// Feeding the simplified formula (its empty clause, when preprocessing
	// alone refuted the input) brings the core to the same verdict state.
	s.core.AddFormula(out.Formula)
}

// restore reverts the elimination of v (no-op for live variables): its
// original clauses go back into the core so the variable is a first-class
// constraint again. Recorded clauses may mention variables eliminated
// later, so the restore cascades.
func (s *Solver) restore(v cnf.Var) {
	if s.view == nil {
		return
	}
	for _, c := range s.view.Restore(v) {
		for _, l := range c {
			s.restore(l.Var())
		}
		s.core.AddClause(c)
	}
}

// NumVars returns the number of variables seen so far.
func (s *Solver) NumVars() int {
	if n := s.pristine.NumVars; n > s.core.NumVars() {
		return n
	}
	return s.core.NumVars()
}

// SimplifyOutcome returns the preprocessing result once the first solve has
// run with SetSimplify enabled, and nil otherwise. Mutating it is not
// allowed — the solver uses it for model reconstruction.
func (s *Solver) SimplifyOutcome() *SimplifyOutcome {
	if s.view == nil {
		return nil
	}
	return s.view.Outcome()
}

// finishResult maps a simplified-space model back to the original
// variables and verifies it.
func (s *Solver) finishResult(r Result) Result {
	if r.Status == StatusSat {
		if s.view != nil {
			r.Model = s.view.Extend(r.Model)
		}
		if s.verify && !cnf.Assignment(r.Model).Satisfies(s.pristine) {
			// A model failing verification indicates an engine (or
			// reconstruction) bug; fail loudly rather than hand back a
			// wrong witness.
			panic("berkmin: internal error: model does not satisfy the input formula")
		}
	}
	return r
}

// solveCore runs one search call with the wall-clock budget reduced by
// whatever the one-time preprocessing consumed (restoring the full budget
// for subsequent incremental calls), and charges that preprocessing time
// to the call's per-call Stats.Runtime so the reported number stays
// end-to-end.
func (s *Solver) solveCore(search func() Result) Result {
	spent := s.preSpent
	if spent == 0 {
		// Nothing pending, and nothing written: a Snapshot's shared base
		// runs its parallel engines through here concurrently.
		return search()
	}
	s.preSpent = 0
	if s.maxTime > 0 {
		s.core.SetMaxTime(s.preRemaining)
		defer s.core.SetMaxTime(s.maxTime)
	}
	r := search()
	// Charge preprocessing to the call's Runtime in both views — the
	// returned Result and the Stats() accessor.
	s.core.ChargeRuntime(spent)
	r.Stats.Runtime += spent
	return r
}

// Solve runs the search. With a resource limit configured in Options the
// result may be StatusUnknown.
func (s *Solver) Solve() Result {
	r, _ := s.SolveContext(context.Background())
	return r
}

// Stats returns statistics collected so far (also available in Result).
func (s *Solver) Stats() Stats { return s.core.Stats() }

// SolveAssuming solves under temporary assumptions given as signed DIMACS
// literals. On an assumption-caused UNSAT, FailedAssumptions(result) names
// a contradictory subset. The solver stays usable afterwards — clauses can
// be added and Solve called again with all learnt clauses retained
// (incremental solving). A zero literal panics; SolveAssumingContext
// reports it as ErrInvalidLiteral instead.
func (s *Solver) SolveAssuming(lits ...int) Result {
	r, err := s.SolveAssumingContext(context.Background(), lits...)
	if err == ErrInvalidLiteral {
		panic("berkmin: assumption literal 0 is not allowed")
	}
	return r
}

// StopReason says why a Solve call returned: StopNone for a definitive
// answer, a resource-limit reason, or StopInterrupted.
type StopReason = core.StopReason

// Stop reasons.
const (
	StopNone        = core.StopNone
	StopConflicts   = core.StopConflicts
	StopDecisions   = core.StopDecisions
	StopTime        = core.StopTime
	StopInterrupted = core.StopInterrupted
)

// Interrupt asks a running Solve to return promptly with StatusUnknown and
// StopInterrupted. It is the only method safe to call from another
// goroutine, and is sticky until ClearInterrupt.
func (s *Solver) Interrupt() { s.core.Interrupt() }

// ClearInterrupt re-arms an interrupted solver for further use.
func (s *Solver) ClearInterrupt() { s.core.ClearInterrupt() }

// ParallelOptions configures SolveParallel. The zero value means: one
// solver per CPU, no resource limits. Members exchange learnt clauses of
// length at most 8 or glue (LBD) at most 4.
type ParallelOptions struct {
	// Jobs is the number of concurrent solvers (<= 0: GOMAXPROCS).
	Jobs int
	// Per-solver budgets, as in Options (0 = unlimited).
	MaxConflicts uint64
	MaxTime      time.Duration
	// Seed diversifies the member PRNGs (0 means 1).
	Seed uint64
	// Simplify preprocesses the formula once before the members race
	// (DefaultSimplifyOptions bounds); the winning model is mapped back to
	// the original variables.
	Simplify bool
}

// ParallelResult is the portfolio outcome: the winning member's Result
// plus its configuration name — "simplify" when preprocessing refuted the
// input and "load" when loading the clauses did, so no member raced; empty
// if every member hit its budget.
type ParallelResult struct {
	Result
	Winner string
}

// SolveParallel solves the formula with a portfolio of diversified solver
// configurations running concurrently: the first definitive answer wins
// and cancels the rest, and members exchange short learnt clauses. Answers
// are identical in kind to Solve's (models are verified before being
// returned); only which member finds them — and how fast — varies.
func SolveParallel(f *Formula, opt ParallelOptions) ParallelResult {
	r, _ := SolveParallelContext(context.Background(), f, opt)
	return r
}

// solveParallel races the portfolio over clones of s's core (loading it
// first, as any solve does) and finishes through finishResult.
func (s *Solver) solveParallel(ctx context.Context, opt ParallelOptions) (ParallelResult, error) {
	var winner string
	r, err := s.solveEngine(ctx, opt.MaxTime, func(maxTime time.Duration) Result {
		if s.core.Dead() {
			winner = "load"
			if s.view != nil {
				winner = "simplify"
			}
			return Result{Status: StatusUnsat}
		}
		pr := portfolio.Race(ctx, s.core, portfolio.Options{
			Jobs:         opt.Jobs,
			MaxConflicts: opt.MaxConflicts,
			MaxTime:      maxTime,
			BaseSeed:     opt.Seed,
		})
		winner = pr.Winner
		return pr.Result
	})
	return ParallelResult{Result: r, Winner: winner}, err
}

// CubeOptions configures cube-and-conquer solving (SolveCubes).
type CubeOptions struct {
	// Jobs is the number of conquer workers (<= 0: GOMAXPROCS).
	Jobs int
	// MaxCubes bounds how many cubes the lookahead cuber produces
	// (0: a few hundred); MaxDepth bounds the split depth (0: default).
	MaxCubes int
	MaxDepth int
	// ShareMaxGlue caps the glue of clauses exchanged between workers
	// (0: default 4, negative: disable the glue route).
	ShareMaxGlue int
	// Config configures the (homogeneous) conquer workers; the zero
	// value means DefaultOptions. Workers differ only in seed — the
	// cuber has already diversified the work itself.
	Config Options
	// MaxTime bounds the whole call end to end (0 = unlimited).
	MaxTime time.Duration
	// Seed diversifies the worker PRNGs (0 means 1).
	Seed uint64
	// Simplify preprocesses the formula once before cubing; the
	// satisfying model is mapped back to the original variables.
	Simplify bool
	// Proof, when non-nil, receives a DRUP refutation on UNSAT: the
	// preprocessor's trace (when Simplify is set) followed by the
	// stitched per-cube proofs, verifiable against the input formula.
	Proof io.Writer
}

// CubeResult is the cube-and-conquer outcome: the verdict plus the
// split/conquer accounting. Only the aggregate Stats fields meaningful
// across many workers are filled (Conflicts, ExportedClauses, Runtime).
type CubeResult struct {
	Result
	// Cubes is how many cubes the conquer phase received; Refuted how
	// many the cuber closed by propagation alone; Solved how many were
	// conquered before the run ended; Steals counts work-stealing events.
	Cubes   int
	Refuted int
	Solved  int
	Steals  int
}

// SolveCubes solves the formula by cube-and-conquer: a lookahead cuber
// partitions the search space into many cubes, and a work-stealing pool
// of solvers conquers them in parallel — the route to wall-clock speedup
// on a single hard instance, where SolveParallel's portfolio saturates.
// Any satisfiable cube wins and cancels the rest; when every cube is
// refuted the verdict is UNSAT, with an optionally stitched DRUP proof.
func SolveCubes(f *Formula, opt CubeOptions) CubeResult {
	r, _ := SolveCubesContext(context.Background(), f, opt)
	return r
}

// engineSolver returns a throwaway front end loaded with f for one
// parallel-engine call: maxTime bounds preprocessing, which runs when
// simplify is set and writes its trace to proof. The engines reconfigure
// every solver they search with, so the front end's other options do not
// matter.
func engineSolver(f *Formula, maxTime time.Duration, simplify bool, proof io.Writer) *Solver {
	o := DefaultOptions()
	o.MaxTime = maxTime
	s := NewWithOptions(o)
	if simplify {
		so := DefaultSimplifyOptions()
		s.SetSimplify(&so)
	}
	if proof != nil {
		s.SetProofWriter(proof)
	}
	s.AddFormula(f)
	return s
}

// solveEngine is a solve whose search is a parallel engine over s.core:
// pending preprocessing runs first — stopping when ctx fires, its time
// deducted from the engine's wall-clock budget maxTime and charged to
// Runtime — and the engine's answer finishes through finishResult. On a
// solver with nothing pending it writes nothing to s but the core's atomic
// interrupt flag, which clones do not inherit, so a Snapshot's shared base
// may serve concurrent calls.
func (s *Solver) solveEngine(ctx context.Context, maxTime time.Duration, engine func(maxTime time.Duration) Result) (Result, error) {
	return s.runWithContext(ctx, func() Result {
		s.preprocess()
		if s.preSpent > 0 && maxTime > 0 {
			// preRemaining is s.maxTime less preprocessing; engineSolver
			// front ends carry the engine's budget as their MaxTime.
			maxTime = s.preRemaining
		}
		return s.finishResult(s.solveCore(func() Result { return engine(maxTime) }))
	})
}

// FailedAssumptions extracts a result's failed-assumption set in signed
// DIMACS form.
func FailedAssumptions(r Result) []int {
	out := make([]int, len(r.FailedAssumptions))
	for i, l := range r.FailedAssumptions {
		out[i] = l.Dimacs()
	}
	return out
}
