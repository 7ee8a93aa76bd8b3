package core

import "berkmin/internal/cnf"

// Clause groups: temporary/removable clauses for incremental query streams
// (IC3/BMC), the MiniSat-lineage activation-literal technique the paper's
// era predates. Each group owns a fresh ACTIVATION VARIABLE t: a clause C
// of the group is added through AddClause as (C ∨ ¬t) (GroupLit gives t),
// so it constrains the search only while t is assumed true — and every
// Solve/SolveAssuming call automatically assumes t for every live group.
// Releasing the group asserts the unit ¬t at level 0, which permanently
// satisfies all its clauses (one added later is dropped as satisfied); the
// existing level-0 simplification then physically reaps them (with DRUP
// deletion lines) and the arena GC reclaims the space.
//
// Proofs stay verifiable: the release unit ¬t is logged as a DRUP addition,
// and the formula a trace must be checked against is the EXTENDED one —
// base clauses, plus every group clause with its activation literal, plus
// one release unit per released group (the front end's ProofFormula).
// Against that formula the release line is its own axiom, and RUP is
// monotone under extra axioms, so every learnt-clause line remains valid.
// The solver only emits the empty clause at a level-0 conflict, which is
// unconditional unsatisfiability of the extended formula — never a mere
// assumption failure — so group-conditioned UNSAT answers add no line.
//
// The group table is FORMULA PLANE (reuse.go): it describes what the
// loaded clauses mean, so Reset keeps it and Clone copies it.

// GroupID names a clause group of a Solver; the zero value is invalid.
// IDs are never reused within a solver lifetime (release retires a group
// permanently), and Clone preserves them, so IDs minted on a master remain
// valid on its clones.
type GroupID int

type groupInfo struct {
	act      cnf.Var // activation variable t
	released bool
}

// NewGroup mints a clause group with a fresh activation variable. Must be
// called between Solve calls. The activation variable is internal: callers
// mention it only as ¬t in the group's own clauses, never in assumptions.
func (s *Solver) NewGroup() GroupID {
	v := cnf.Var(s.nVars + 1)
	s.ensureVars(int(v))
	g := GroupID(len(s.groups) + 1)
	s.groups = append(s.groups, groupInfo{act: v})
	if s.groupOf == nil {
		s.groupOf = make(map[cnf.Var]GroupID)
	}
	s.groupOf[v] = g
	return g
}

// NumGroups returns the number of groups minted so far, released ones
// included; GroupIDs run from 1 to NumGroups.
func (s *Solver) NumGroups() int { return len(s.groups) }

// GroupLit returns the group's activation literal (true while the group is
// live). Front ends use it to mirror the extended clauses into the formula
// a DRUP trace verifies against.
func (s *Solver) GroupLit(g GroupID) cnf.Lit { return cnf.PosLit(s.groups[g-1].act) }

// GroupReleased reports whether the group has been released.
func (s *Solver) GroupReleased(g GroupID) bool { return s.groups[g-1].released }

// ReleaseGroup retires the group: the unit ¬t is asserted at level 0 (and
// logged as a DRUP addition — it is an axiom of the extended verification
// formula, see the package comment above), permanently satisfying every
// clause of the group. The clauses are physically reaped at the start of
// the next solve. Returns true if the group was live, false if this is a
// repeat release (a no-op). Must be called between Solve calls.
func (s *Solver) ReleaseGroup(g GroupID) bool {
	info := &s.groups[g-1]
	if info.released {
		return false
	}
	info.released = true
	s.pendingReleases++
	s.simpTrail = -1
	if !s.ok {
		return true
	}
	unit := [1]cnf.Lit{cnf.NegLit(info.act)}
	s.proof.Add(unit[:])
	// t can only be true at level 0 if the extended formula is UNSAT
	// outright (t occurs purely negatively in problem clauses, so nothing
	// satisfiable implies it): with the release axiom on record the
	// resulting empty clause is RUP, and marking the solver dead is sound.
	if !s.enqueue(unit[0], refUndef) {
		s.ok = false
		s.proof.Add(nil)
		return true
	}
	if confl := s.propagate(); confl != refUndef {
		s.ok = false
		s.proof.Add(nil)
	}
	return true
}

// reapReleased physically removes the clauses of released groups: their
// activation units are on the level-0 trail, so the ordinary level-0
// simplification deletes them (as satisfied, with DRUP deletion lines) and
// the arena GC compacts the space when enough was freed. Reasons into the
// soon-to-be-freed clauses are cleared first by simplifyLevel0's
// clearLevel0Reasons, which logs any still-reasoned level-0 unit as a DRUP
// addition before its antecedent becomes deletable — the same soundness
// discipline Reset follows. Runs at solve entry, at level 0.
func (s *Solver) reapReleased() {
	s.pendingReleases = 0
	if !s.ok {
		return
	}
	if confl := s.propagate(); confl != refUndef {
		s.ok = false
		s.proof.Add(nil)
		return
	}
	s.simplifyLevel0()
	if !s.ok {
		return
	}
	s.maybeGC()
	s.rebuildWatches()
	s.refreshBinOcc()
	s.recountTiers()
}

// withGroupAssumptions prepends the activation literal of every live group
// to the caller's assumptions, reusing a scratch buffer (the slice is
// consumed synchronously by solve before the next call can clobber it).
func (s *Solver) withGroupAssumptions(user []cnf.Lit) []cnf.Lit {
	live := 0
	for i := range s.groups {
		if !s.groups[i].released {
			live++
		}
	}
	if live == 0 {
		return user
	}
	buf := s.groupAssumpBuf[:0]
	for i := range s.groups {
		if !s.groups[i].released {
			buf = append(buf, cnf.PosLit(s.groups[i].act))
		}
	}
	buf = append(buf, user...)
	s.groupAssumpBuf = buf
	return buf
}

// partitionFailed splits analyzeFinal's raw output into the group core and
// the user-facing failed assumptions, deduplicated and ordered by first
// occurrence in the assumption list handed to solve (group activation
// literals first, then the caller's literals in caller order — so the
// user-facing slice follows the caller's order). analyzeFinal only emits
// assumption decisions from the trail plus the falsified assumption
// itself, so every literal is found in the walk; the trailing loop is a
// defensive net that preserves the subset contract if that ever changes.
func (s *Solver) partitionFailed(raw, assumptions []cnf.Lit) (groups []GroupID, user []cnf.Lit) {
	take := func(l cnf.Lit) {
		if !l.Neg() {
			if g, ok := s.groupOf[l.Var()]; ok {
				for _, have := range groups {
					if have == g {
						return
					}
				}
				groups = append(groups, g)
				return
			}
		}
		for _, have := range user {
			if have == l {
				return
			}
		}
		user = append(user, l)
	}
	contains := func(list []cnf.Lit, l cnf.Lit) bool {
		for _, x := range list {
			if x == l {
				return true
			}
		}
		return false
	}
	for _, a := range assumptions {
		if contains(raw, a) {
			take(a)
		}
	}
	for _, l := range raw {
		if !contains(assumptions, l) {
			take(l)
		}
	}
	return groups, user
}

// UnsatCore returns the core of the most recent UNSAT answer of Solve or
// SolveAssuming: the clause groups and the (deduplicated) failed
// assumptions that together with the permanent clauses are already
// unsatisfiable. Both slices are empty when the formula is unsatisfiable
// on its own (level-0 UNSAT needs no assumptions at all), and nil when the
// last answer was not UNSAT. The slices are owned by the solver and valid
// until the next solve.
func (s *Solver) UnsatCore() ([]GroupID, []cnf.Lit) { return s.lastCore, s.lastFailed }

// SetShrinkBudget enables iterative minimization of FailedAssumptions:
// after an assumption-failure UNSAT, SolveAssuming re-solves candidate
// subsets — each attempt bounded by budget conflicts — dropping assumptions
// the failure does not need. 0 (the default) disables minimization. The
// extra solves accumulate into the solver's incremental Stats, but the
// returned Result keeps the main call's numbers.
func (s *Solver) SetShrinkBudget(budget uint64) { s.shrinkBudget = budget }

// shrinkFailed minimizes a failed-assumption set by destructive deletion:
// drop one assumption, re-solve under the budget, and keep the drop when
// the rest still fails. An UNSAT probe's own FailedAssumptions replaces
// the candidate wholesale (it may shed several literals at once), so the
// loop is linear in the set size. Group activation literals are handled
// by solve itself (withGroupAssumptions), not the candidate set.
//
// A probe's failure may run through a DIFFERENT group core than the main
// call's (another group's clauses supply the contradiction once a literal
// is dropped), so the failed set and the group core are only valid as the
// pair one UNSAT answer produced together: every candidate replacement
// captures its probe's core, and the caller must report that pair — not
// the main call's core with the shrunken set (found by fuzzing: a core of
// no groups plus one literal that re-solved SAT).
func (s *Solver) shrinkFailed(failed []cnf.Lit, groups []GroupID) ([]cnf.Lit, []GroupID) {
	cand := append([]cnf.Lit(nil), failed...)
	savedMax := s.opt.MaxConflicts
	probe := make([]cnf.Lit, 0, len(cand))
	for i := 0; i < len(cand) && len(cand) > 1; {
		probe = append(probe[:0], cand[:i]...)
		probe = append(probe, cand[i+1:]...)
		// MaxConflicts is compared against the CUMULATIVE conflict count,
		// so the per-probe budget is expressed relative to it.
		s.opt.MaxConflicts = s.stats.Conflicts + s.shrinkBudget
		r := s.solve(s.withGroupAssumptions(probe))
		if r.Status == StatusUnsat {
			groups = append([]GroupID(nil), s.lastCore...)
			if len(r.FailedAssumptions) == 0 {
				// The probe failed with no user assumption at all: either
				// unconditional unsatisfiability (empty core) or a purely
				// group-caused failure (the probe's core says which).
				cand = cand[:0]
				break
			}
			cand = append(cand[:0], r.FailedAssumptions...)
		} else {
			i++ // necessary (or the budget ran out) — keep it and move on
		}
	}
	s.opt.MaxConflicts = savedMax
	return cand, groups
}
