package berkmin

// Incremental solving: clause groups, UNSAT cores, and failed-assumption
// minimization over the core engine's groups.go. The front end keeps the
// pristine formula in step — every group clause (with its activation
// literal) and every release unit is appended — so model verification and
// DRUP checking (ProofFormula) keep working across group churn.

import (
	"berkmin/internal/cnf"
	"berkmin/internal/core"
)

// Group identifies a removable clause group of a Solver; the zero value is
// invalid. Groups minted on a snapshot's master remain valid on solvers
// derived from it.
type Group = core.GroupID

// NewClauseGroup mints a clause group: clauses added to it with
// AddClauseGroup are enforced by every solve until ReleaseGroup retires
// them. Internally the group owns a fresh activation variable, assumed
// true on every solve while the group is live; the variable is beyond
// NumVars at mint time and must not appear in the caller's clauses or
// assumptions. With SetSimplify enabled the first group operation runs
// preprocessing (group clauses are transient and never enter the
// simplifier), so create groups after the base formula is loaded.
func (s *Solver) NewClauseGroup() Group {
	s.preprocess()
	return s.core.NewGroup()
}

// AddClauseGroup adds a clause (signed DIMACS literals) to the group. The
// error contract is AddClause's: ErrInvalidLiteral for a zero literal,
// ErrSolverDead when unsatisfiability is already established at level 0.
// Adding to a released group is accepted and constrains nothing.
func (s *Solver) AddClauseGroup(g Group, lits ...int) error {
	for _, l := range lits {
		if l == 0 {
			return ErrInvalidLiteral
		}
	}
	s.preprocess()
	wasDead := s.core.Dead()
	c := cnf.NewClause(lits...)
	// A group clause may mention variables preprocessing eliminated;
	// bring their defining clauses back first, as feed does.
	for _, l := range c {
		s.restore(l.Var())
	}
	// The pristine mirror records what the solver actually enforces — the
	// clause extended with the group's activation literal — keeping model
	// verification and ProofFormula exact.
	ext := append(c.Clone(), s.core.GroupLit(g).Not())
	s.pristine.Add(ext)
	s.core.AddGroupClause(g, c)
	if wasDead {
		return ErrSolverDead
	}
	return nil
}

// ReleaseGroup retires a group: its clauses stop constraining the search
// permanently (the group's activation variable is fixed false at level 0)
// and their storage is reclaimed at the next solve. Releasing an already
// released group is a no-op.
func (s *Solver) ReleaseGroup(g Group) {
	s.preprocess()
	if s.core.ReleaseGroup(g) {
		// The release unit is an axiom of the verification formula (the
		// core logs it as a DRUP addition); record it exactly once.
		s.pristine.Add(cnf.Clause{s.core.GroupLit(g).Not()})
	}
}

// GroupReleased reports whether the group has been released.
func (s *Solver) GroupReleased(g Group) bool { return s.core.GroupReleased(g) }

// UnsatCore returns the core of the most recent UNSAT answer: the clause
// groups and the failed assumptions (signed DIMACS, deduplicated, in
// first-occurrence assumption order) that are already contradictory
// together with the permanent clauses. Both are empty when the permanent
// clauses are unsatisfiable on their own. Valid until the next solve.
func (s *Solver) UnsatCore() ([]Group, []int) {
	groups, lits := s.core.UnsatCore()
	out := make([]int, len(lits))
	for i, l := range lits {
		out[i] = l.Dimacs()
	}
	return groups, out
}

// SetCoreMinimize enables iterative minimization of the failed-assumption
// set: after an assumption-caused UNSAT, candidate subsets are re-solved —
// each attempt bounded by budget conflicts — until the set is near-minimal.
// 0 (the default) disables it. The extra solves accumulate into the
// solver's incremental Stats; the returned Result keeps the main call's
// numbers.
func (s *Solver) SetCoreMinimize(budget uint64) { s.core.SetShrinkBudget(budget) }

// ProofFormula returns the formula a DRUP trace emitted via SetProofWriter
// verifies against: the clauses ever added, every group clause extended
// with its group's activation literal, and one release unit per released
// group. The release units are axioms here — that is what keeps traces
// spanning group releases checkable (RUP derivations remain valid under
// extra axioms). Pass it to CheckDRUP together with the captured trace.
// The result shares clause storage with the solver; do not mutate it.
func (s *Solver) ProofFormula() *Formula { return shallowFormula(s.pristine) }
