package core

import "berkmin/internal/cnf"

// decider is the solver's branching plane: everything that decides which
// literal to branch on next, and the heuristic state behind that choice
// (activities, heaps, reward accounting). The CDCL engine drives it
// exclusively through these hooks, so heuristics are swappable objects with
// an explicit lifecycle instead of fields smeared across the solver — the
// lifecycle operations of reuse.go (Reset, Clone, Reconfigure) carry
// heuristic state through the same seam.
//
// Implementations: berkminDecider (the paper's §4–§7 branching and its
// ablations — DecideBerkMinTop, DecideGlobalMostActive, DecideChaffLiteral),
// evsidsDecider (MiniSat-lineage exponential VSIDS) and lrbDecider
// (learning-rate branching). newDecider maps Options.Decision to one.
type decider interface {
	// pick returns the next branching literal — variable and polarity — or
	// cnf.LitUndef when every variable is assigned (a model has been found).
	pick() cnf.Lit
	// onBacktrack observes cancelUntil unassigning the trail suffix
	// unassigned, once per backtrack: the variables are already unassigned
	// and the trail is not yet truncated. Deciders visit the slice from the
	// top of the trail down. Assignments themselves reach no hook; a
	// decider that needs them (LRB) reads the trail at its next hook.
	onBacktrack(unassigned []cnf.Lit)
	// onConflict is called once per conflict, after analysis and before
	// backtracking, so interval-based reward accounting sees the conflict
	// both in the bumps (analysis) and in the unassignments (backtrack).
	onConflict()
	// onAntecedent observes one clause responsible for the conflict — every
	// antecedent expanded during first-UIP analysis (§2, §4).
	onAntecedent(lits []cnf.Lit)
	// onLearnt observes the final learnt clause (post-minimization) and its
	// glue, while all its literals are still assigned.
	onLearnt(lits []cnf.Lit, glue int)
	// decay is the periodic aging hook, driven by Options.AgingPeriod.
	// Deciders with their own decay schedule (EVSIDS, LRB) ignore it.
	decay()
	// onNewQuery marks the boundary between queries of an incremental
	// stream: called at the start of every solve after the first when
	// Options.QueryDecay is set (solver.go), so heuristic state survives
	// the stream but earlier queries' influence fades instead of
	// compounding. With QueryDecay unset (the default) it is never
	// invoked and the legacy carry-everything behavior is exact.
	onNewQuery()
	// rebuild grows the per-variable and per-literal state to cover
	// variables 1..n, registering the new variables for selection.
	rebuild(n int)
	// truncate cuts the per-variable and per-literal state back to
	// variables 1..n, keeping capacity (Solver.DropGroups). The pick
	// structures are left empty for the reset that must follow.
	truncate(n int)
	// reset restarts the heuristic lifetime: activities cleared, schedules
	// re-armed, selection structures rebuilt (Solver.Reset).
	reset()
	// reconfigure re-arms policy state after an Options swap within the
	// same decider family: selection structures are rebuilt for the new
	// configuration but learned activities are kept (Solver.Reconfigure).
	reconfigure()
	// clone deep-copies the decider for ns, a clone of the owning solver;
	// the copy shares no mutable memory with the original.
	clone(ns *Solver) decider
}

// newDecider builds the decider selected by s.opt.Decision. The three
// legacy modes share one implementation (they differ in picking rules, not
// state), so reconfiguring among them preserves heuristic state.
func newDecider(s *Solver) decider {
	switch s.opt.Decision {
	case DecideEvsids:
		return newEvsidsDecider(s)
	case DecideLrb:
		return newLrbDecider(s)
	default:
		return newBerkminDecider(s)
	}
}

// sameDeciderFamily reports whether two decision modes are served by the
// same decider implementation, so Reconfigure can keep heuristic state
// instead of starting a fresh lifetime.
func sameDeciderFamily(a, b DecisionMode) bool {
	legacy := func(m DecisionMode) bool {
		return m == DecideBerkMinTop || m == DecideGlobalMostActive || m == DecideChaffLiteral
	}
	if legacy(a) && legacy(b) {
		return true
	}
	return a == b
}

// decide picks the next branching literal through the installed decider.
func (s *Solver) decide() cnf.Lit { return s.dec.pick() }

// pickFree is the EVSIDS and LRB pick: it pops order, discarding assigned
// variables, and branches on the first free one with the shared polarity
// rule (a global decision); cnf.LitUndef once the heap is empty.
func (s *Solver) pickFree(order *actHeap[cnf.Var, float64]) cnf.Lit {
	for {
		v := order.pop()
		if v == 0 {
			return cnf.LitUndef
		}
		if s.vals[cnf.PosLit(v)] == lUndef {
			s.stats.GlobalDecisions++
			return s.nbTwoPolarity(v)
		}
	}
}
