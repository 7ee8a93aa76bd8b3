package core

import (
	"math/rand"
	"testing"

	"berkmin/internal/cnf"
)

// checkInvariants asserts the solver-wide structural invariants that every
// database pass (reduceDB, GC, inprocessing) must preserve. It is the
// reusable harness the clause-database work is pinned by: call it after
// any pass that deletes, shrinks or relocates clauses.
//
//   - the problem and learnt clause lists hold no tombstoned refs, and the
//     learnt list only learnt-flagged clauses;
//   - the tier gauges (Stats.CoreLearnts/Tier2Learnts/LocalLearnts) equal
//     an arena walk over the learnt stack, and every stored glue is
//     positive and bounded by the clause size (tiered mode);
//   - binary tier bits agree with clause size (a 2-literal learnt clause
//     is CORE);
//   - the watch lists (both tiers) contain no tombstoned refs, every
//     watcher's literal really occurs in its clause's watched slots, and
//     Stats.BinClauses equals the binary-tier walk;
//   - every assigned variable's reason ref is live, and refBin reasons
//     carry a real implying literal;
//   - the per-literal value array is consistent: vals[2v] == -vals[2v+1]
//     for every variable, every trail literal is true, and exactly
//     len(trail) variables are assigned.
func checkInvariants(t testing.TB, s *Solver) {
	t.Helper()
	checkValues(t, s)
	if !s.ok {
		// Level-0 UNSAT tears the pass down mid-flight (early returns skip
		// the rebuilds and recounts on purpose): the solver is dead and
		// every later Solve answers immediately, so there is no live state
		// left to keep consistent.
		return
	}
	for _, c := range s.clauses {
		if s.ca.deleted(c) {
			t.Fatalf("invariant: problem clause %d is tombstoned but still listed", c)
		}
	}
	core, mid, local := 0, 0, 0
	for _, c := range s.learnts {
		if s.ca.deleted(c) {
			t.Fatalf("invariant: learnt clause %d is tombstoned but still listed", c)
		}
		if !s.ca.learnt(c) {
			t.Fatalf("invariant: clause %d on the learnt stack is not learnt-flagged", c)
		}
		switch s.ca.tier(c) {
		case tierCore:
			core++
		case tierMid:
			mid++
		default:
			local++
		}
		if s.opt.Reduce == ReduceTiered {
			g := s.ca.glue(c)
			if g < 1 || g > s.ca.size(c) {
				t.Fatalf("invariant: learnt clause %d has glue %d outside [1, %d]",
					c, g, s.ca.size(c))
			}
			if s.ca.size(c) <= 2 && s.ca.tier(c) != tierCore {
				t.Fatalf("invariant: binary learnt clause %d not in CORE (tier %d)",
					c, s.ca.tier(c))
			}
		}
	}
	if s.opt.Reduce == ReduceTiered {
		if core != s.stats.CoreLearnts || mid != s.stats.Tier2Learnts || local != s.stats.LocalLearnts {
			t.Fatalf("invariant: tier gauges core=%d tier2=%d local=%d, arena walk %d/%d/%d",
				s.stats.CoreLearnts, s.stats.Tier2Learnts, s.stats.LocalLearnts, core, mid, local)
		}
	}

	for l, ws := range s.watches {
		for _, w := range ws {
			if s.ca.deleted(w.c) {
				t.Fatalf("invariant: watches[%v] holds tombstoned clause %d", cnf.Lit(l), w.c)
			}
			lits := s.ca.lits(w.c)
			if lits[0] != cnf.Lit(l) && lits[1] != cnf.Lit(l) {
				t.Fatalf("invariant: clause %d watched on %v which is not in its watched slots %v",
					w.c, cnf.Lit(l), lits[:2])
			}
		}
	}
	binEntries := 0
	for l, ws := range s.binWatches {
		for _, w := range ws {
			if s.ca.deleted(w.ref) {
				t.Fatalf("invariant: binWatches[%v] holds tombstoned clause %d", cnf.Lit(l), w.ref)
			}
			if s.ca.size(w.ref) != 2 {
				t.Fatalf("invariant: binWatches[%v] holds clause %d of size %d",
					cnf.Lit(l), w.ref, s.ca.size(w.ref))
			}
			if !s.ca.has(w.ref, cnf.Lit(l)) || !s.ca.has(w.ref, w.other) {
				t.Fatalf("invariant: binary entry (%v, %v) does not match clause %d = %v",
					cnf.Lit(l), w.other, w.ref, s.ca.lits(w.ref))
			}
			binEntries++
		}
	}
	if binEntries != 2*s.stats.BinClauses {
		t.Fatalf("invariant: BinClauses gauge = %d, binary tier holds %d entries (want %d)",
			s.stats.BinClauses, binEntries, 2*s.stats.BinClauses)
	}

	for v := 1; v <= s.nVars; v++ {
		if s.vals[cnf.PosLit(cnf.Var(v))] == lUndef {
			continue
		}
		switch r := s.reason[v]; r {
		case refUndef:
		case refBin:
			if s.binReason[v] == cnf.LitUndef {
				t.Fatalf("invariant: x%d has a refBin reason but no implying literal", v)
			}
		default:
			if s.ca.deleted(r) {
				t.Fatalf("invariant: x%d's reason clause %d is tombstoned", v, r)
			}
		}
	}
}

// checkValues asserts the value-array part of checkInvariants. It holds
// even on a dead (level-0 UNSAT) solver, so it runs before that early exit.
func checkValues(t testing.TB, s *Solver) {
	t.Helper()
	assigned := 0
	for v := 1; v <= s.nVars; v++ {
		p := cnf.PosLit(cnf.Var(v))
		if s.vals[p] != -s.vals[p^1] {
			t.Fatalf("invariant: x%d has vals[+] = %d but vals[-] = %d", v, s.vals[p], s.vals[p^1])
		}
		if s.vals[p] != lUndef {
			assigned++
		}
	}
	for i, l := range s.trail {
		if s.vals[l] != lTrue {
			t.Fatalf("invariant: trail[%d] = %v has value %d, want true", i, l, s.vals[l])
		}
	}
	if assigned != len(s.trail) {
		t.Fatalf("invariant: %d variables assigned, trail holds %d literals", assigned, len(s.trail))
	}
}

// TestValueArrayInvariants drives every writer of the per-literal value
// array — enqueue, enqueueBin, cancelUntil, Reset, Clone and the growth
// of NewGroup past nVars — through checkInvariants.
func TestValueArrayInvariants(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2, 3))
	s.AddClause(cnf.NewClause(-1, 4))
	s.AddClause(cnf.NewClause(3)) // level-0 unit, kept across Reset
	s.propagate()
	checkInvariants(t, s)

	s.newDecisionLevel()
	s.enqueue(cnf.NegLit(2), refUndef)
	s.enqueueBin(cnf.PosLit(4), cnf.NegLit(1))
	checkInvariants(t, s)
	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(1), refUndef)
	if s.enqueue(cnf.NegLit(1), refUndef) {
		t.Fatal("enqueue of a false literal succeeded")
	}
	if !s.enqueue(cnf.PosLit(1), refUndef) {
		t.Fatal("enqueue of a true literal failed")
	}
	checkInvariants(t, s)

	c := s.Clone()
	checkInvariants(t, c)
	c.cancelUntil(1)
	checkInvariants(t, c)
	if s.value(cnf.PosLit(1)) != lTrue || c.value(cnf.PosLit(1)) != lUndef {
		t.Fatal("clone shares the value array")
	}

	s.cancelUntil(1)
	checkInvariants(t, s)
	g := s.NewGroup() // grows every array past nVars mid-search
	checkInvariants(t, s)
	if a := s.GroupLit(g); s.value(a) != lUndef || s.value(a.Not()) != lUndef {
		t.Fatalf("fresh activation variable is assigned: %d/%d", s.value(a), s.value(a.Not()))
	}
	s.enqueue(s.GroupLit(g).Not(), refUndef)
	checkInvariants(t, s)
	s.cancelUntil(0)
	checkInvariants(t, s)
	if len(s.trail) != 1 || s.trail[0] != cnf.PosLit(3) {
		t.Fatalf("level-0 trail = %v, want [x3]", s.trail)
	}

	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(2), refUndef)
	s.Reset()
	checkInvariants(t, s)
	if s.value(cnf.PosLit(3)) != lTrue || s.value(cnf.PosLit(2)) != lUndef {
		t.Fatal("Reset lost the level-0 unit or kept a decision")
	}
	if r := s.Solve(); r.Status != StatusSat {
		t.Fatalf("status = %v", r.Status)
	}
	checkInvariants(t, s)
}

// churnOptions returns a tiered configuration with aggressive restart and
// inprocessing cadences; newChurnSolver adds the matching cleaning
// cadence, so even small instances push clauses through every tier
// transition and database pass.
func churnOptions() Options {
	o := TieredOptions()
	o.RestartFirst = 8
	o.EnableInprocessing()
	o.InprocessPeriod = 2
	return o
}

// newChurnSolver is New(o) with the tiered cleaning target re-armed to 12
// learnt clauses, +6 per cleaning, in place of the tieredFirstReduce /
// tieredReduceInc schedule that small instances never reach. The conflict
// hook re-arms it: every cleaning (and every Reset back to
// tieredFirstReduce) is followed by a conflict before the next restart.
// Under the BerkMin database the target is never read.
func newChurnSolver(o Options) *Solver {
	s := New(o)
	const first, inc = 12, 6
	target := first
	s.tieredTarget = target
	s.debugConflict = func(clauseRef) {
		switch s.tieredTarget {
		case target:
		case tieredFirstReduce:
			target = first
		default:
			target += inc
		}
		s.tieredTarget = target
	}
	return s
}

// TestInvariantsAfterSolve runs full solves under the BerkMin-style and
// tiered databases (the latter with inprocessing and a churn-heavy
// schedule) and checks the structural invariants at the end of each.
func TestInvariantsAfterSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	formulas := []*cnf.Formula{pigeonhole(5), pigeonhole(6)}
	for i := 0; i < 4; i++ {
		f := cnf.New(25)
		for j := 0; j < 105; j++ {
			var c cnf.Clause
			for k := 0; k < 3; k++ {
				c = append(c, cnf.MkLit(cnf.Var(rng.Intn(25)+1), rng.Intn(2) == 0))
			}
			f.Add(c)
		}
		formulas = append(formulas, f)
	}
	for name, opt := range map[string]Options{
		"berkmin": DefaultOptions(),
		"tiered":  churnOptions(),
	} {
		for i, f := range formulas {
			s := newChurnSolver(opt)
			s.AddFormula(f)
			if r := s.Solve(); r.Status == StatusUnknown {
				t.Fatalf("%s formula %d: unexpected UNKNOWN", name, i)
			}
			checkInvariants(t, s)
			// A budget-limited run leaves a live solver mid-problem — the
			// state an incremental caller would build on — where the full
			// invariant set is enforceable (an UNSAT finish above may have
			// torn the structures down with the solver already dead).
			limited := opt
			limited.MaxConflicts = 40
			s2 := newChurnSolver(limited)
			s2.AddFormula(f)
			s2.Solve()
			checkInvariants(t, s2)
		}
	}
}

// TestInvariantsAfterEveryReduce drives a solve that checks the
// invariants after every single database pass, not just at the end: the
// restart hook fires reduceDB at each conflict boundary via RestartFirst=1.
func TestInvariantsAfterEveryReduce(t *testing.T) {
	o := churnOptions()
	o.RestartFirst = 1
	s := newChurnSolver(o)
	s.AddFormula(pigeonhole(5))
	conflicts := 0
	churn := s.debugConflict
	s.debugConflict = func(c clauseRef) {
		churn(c)
		conflicts++
		if conflicts%3 == 0 {
			// The solver sits mid-search here; the clause lists and reasons
			// must be consistent at every conflict, database pass or not.
			checkInvariants(t, s)
		}
	}
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	if s.stats.Restarts == 0 {
		t.Fatal("expected restarts (and reduceDB passes)")
	}
	checkInvariants(t, s)
}

// TestInvariantsAfterGC forces arena compactions during a tiered solve and
// re-checks the invariants (refs relocated, watches rebuilt).
func TestInvariantsAfterGC(t *testing.T) {
	s := newChurnSolver(churnOptions())
	s.AddFormula(pigeonhole(6))
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	if s.stats.ArenaGCs == 0 {
		t.Skip("no GC triggered at this size; covered by arena tests")
	}
	checkInvariants(t, s)
}
