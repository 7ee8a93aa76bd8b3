package core

import (
	"math/rand"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/dpll"
)

// TestArenaAllocRoundtrip checks the packed clause layout: size, literals,
// flags, activity and the glue/tier/touched word survive storage and are
// independent between clauses.
func TestArenaAllocRoundtrip(t *testing.T) {
	var a clauseArena
	c1 := a.alloc([]cnf.Lit{cnf.PosLit(1), cnf.NegLit(2), cnf.PosLit(3)}, false)
	c2 := a.alloc([]cnf.Lit{cnf.NegLit(4), cnf.PosLit(5)}, true)
	if a.size(c1) != 3 || a.size(c2) != 2 {
		t.Fatalf("sizes = %d, %d", a.size(c1), a.size(c2))
	}
	if a.learnt(c1) || !a.learnt(c2) {
		t.Fatal("learnt flag wrong")
	}
	want := []cnf.Lit{cnf.PosLit(1), cnf.NegLit(2), cnf.PosLit(3)}
	for i, l := range a.lits(c1) {
		if l != want[i] {
			t.Fatalf("lits(c1)[%d] = %v, want %v", i, l, want[i])
		}
	}
	a.bumpAct(c1)
	a.bumpAct(c1)
	if a.act(c1) != 2 || a.act(c2) != 0 {
		t.Fatalf("act = %d, %d", a.act(c1), a.act(c2))
	}
	a.setProtect(c2)
	if a.protect(c1) || !a.protect(c2) {
		t.Fatal("protect flag wrong")
	}
	a.setGlue(c1, 5)
	a.setTier(c1, tierCore)
	a.setTouched(c1)
	if a.glue(c1) != 5 || a.tier(c1) != tierCore || !a.touched(c1) {
		t.Fatal("extra word fields lost")
	}
	if a.glue(c2) != 0 || a.tier(c2) != tierLocal || a.touched(c2) {
		t.Fatal("extra word not clause-local")
	}
	if a.words() != 2*clauseHdrWords+5 {
		t.Fatalf("words = %d, want %d", a.words(), 2*clauseHdrWords+5)
	}
}

// TestArenaFreeAndShrinkAccounting checks lazy-deletion bookkeeping: freed
// clauses stay readable, wasted words accumulate, double-free is a no-op.
func TestArenaFreeAndShrinkAccounting(t *testing.T) {
	var a clauseArena
	c1 := a.alloc([]cnf.Lit{cnf.PosLit(1), cnf.PosLit(2), cnf.PosLit(3)}, true)
	c2 := a.alloc([]cnf.Lit{cnf.PosLit(4), cnf.PosLit(5)}, false)
	a.free(c1)
	if !a.deleted(c1) || a.deleted(c2) {
		t.Fatal("deleted flag wrong")
	}
	if got := a.wasted; got != clauseHdrWords+3 {
		t.Fatalf("wasted = %d, want %d", got, clauseHdrWords+3)
	}
	a.free(c1) // idempotent
	if got := a.wasted; got != clauseHdrWords+3 {
		t.Fatalf("double free changed accounting: wasted = %d", got)
	}
	// Tombstoned literals remain readable until compaction (DRUP deletion
	// logging and in-flight watcher lists rely on this).
	if lits := a.lits(c1); len(lits) != 3 || lits[0] != cnf.PosLit(1) {
		t.Fatalf("tombstoned clause unreadable: %v", lits)
	}
	a.shrink(c2, 1)
	if a.size(c2) != 1 || a.lits(c2)[0] != cnf.PosLit(4) {
		t.Fatal("shrink lost the kept prefix")
	}
	if got := a.wasted; got != clauseHdrWords+3+1 {
		t.Fatalf("wasted after shrink = %d", got)
	}
}

// TestGarbageCollectRelocates checks that compaction drops tombstones,
// preserves live clause contents/flags/activity, and remaps the refs held
// in the clause lists and the reason array.
func TestGarbageCollectRelocates(t *testing.T) {
	s := New(DefaultOptions())
	s.ensureVars(10)
	keep := s.ca.alloc([]cnf.Lit{cnf.PosLit(1), cnf.PosLit(2), cnf.PosLit(3)}, false)
	dead := s.ca.alloc(make([]cnf.Lit, 40), true)
	learnt := s.ca.alloc([]cnf.Lit{cnf.NegLit(4), cnf.PosLit(5)}, true)
	s.clauses = append(s.clauses, keep)
	s.learnts = append(s.learnts, learnt)
	s.ca.setAct(learnt, 7)
	s.ca.setProtect(learnt)
	s.ca.setGlue(learnt, 2)
	s.ca.setTier(learnt, tierCore)
	s.ca.setTouched(learnt)
	s.ca.free(dead)
	// Simulate an antecedent surviving into the GC (defensive remap path):
	// aliasing learnt through reason[5] must resolve to the same new ref.
	s.reason[5] = learnt

	before := s.ca.words()
	s.garbageCollect()
	if s.ca.wasted != 0 {
		t.Fatalf("wasted after GC = %d", s.ca.wasted)
	}
	if got := s.ca.words(); got >= before {
		t.Fatalf("arena did not compact: %d -> %d words", before, got)
	}
	if got := s.ca.lits(s.clauses[0]); len(got) != 3 || got[0] != cnf.PosLit(1) {
		t.Fatalf("problem clause corrupted: %v", got)
	}
	l := s.learnts[0]
	if s.reason[5] != l {
		t.Fatalf("aliased refs diverged: reason %d vs learnt %d", s.reason[5], l)
	}
	if !s.ca.learnt(l) || !s.ca.protect(l) || s.ca.act(l) != 7 {
		t.Fatal("flags or activity lost in relocation")
	}
	if s.ca.glue(l) != 2 || s.ca.tier(l) != tierCore || !s.ca.touched(l) {
		t.Fatal("glue/tier/touched word lost in relocation")
	}
	if got := s.ca.lits(l); len(got) != 2 || got[0] != cnf.NegLit(4) || got[1] != cnf.PosLit(5) {
		t.Fatalf("learnt clause corrupted: %v", got)
	}
	if s.stats.ArenaGCs != 1 {
		t.Fatalf("ArenaGCs = %d", s.stats.ArenaGCs)
	}
}

// TestSolveUnderAggressiveGC differential-tests full solves with database
// management (and therefore tombstoning + compaction) forced after every
// conflict: verdicts must match the DPLL oracle and models must check out.
func TestSolveUnderAggressiveGC(t *testing.T) {
	// Cleaning after every conflict makes the old-clause threshold grow
	// fast, so deletions (and therefore tombstones) accumulate and the 25%
	// waste threshold trips compactions repeatedly.
	aggressive := func() Options {
		o := DefaultOptions()
		o.RestartFirst = 1 // reduceDB after every conflict
		o.RestartJitter = 0
		return o
	}

	// A conflict-heavy UNSAT instance deterministically drives the solver
	// through many tombstone/compact cycles.
	s := New(aggressive())
	s.AddFormula(pigeonhole(6))
	r := s.Solve()
	if r.Status != StatusUnsat {
		t.Fatalf("pigeonhole(6) = %v", r.Status)
	}
	if r.Stats.ArenaGCs == 0 {
		t.Fatalf("no arena compaction in %d conflicts; the GC path is untested", r.Stats.Conflicts)
	}

	// Differential sweep: verdicts and models must match the DPLL oracle
	// while clauses are being tombstoned and relocated underneath.
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 120; iter++ {
		n := 6 + rng.Intn(10)
		f := randomFormula(rng, n, 5*n, 3)
		s := New(aggressive())
		s.AddFormula(f)
		r := s.Solve()
		want := dpll.Solve(f).Sat
		if (r.Status == StatusSat) != want {
			t.Fatalf("iter %d: engine %v, dpll sat=%v", iter, r.Status, want)
		}
		if r.Status == StatusSat && !cnf.Assignment(r.Model).Satisfies(f) {
			t.Fatalf("iter %d: bad model", iter)
		}
		checkInvariants(t, s)
	}
}

// TestIncrementalSolveAcrossGC checks the incremental-use contract on a
// solver whose arena has already been compacted: clauses added after a GC
// must be stored, watched and propagated like any others, and the search
// must still finish correctly.
func TestIncrementalSolveAcrossGC(t *testing.T) {
	o := DefaultOptions()
	o.RestartFirst = 1
	o.RestartJitter = 0
	s := New(o)
	s.AddFormula(pigeonhole(6))
	// Stop the search right after the first compaction so the solver is
	// still undecided and usable.
	s.debugConflict = func(clauseRef) {
		if s.stats.ArenaGCs > 0 {
			s.Interrupt()
		}
	}
	r := s.Solve()
	if r.Stop != StopInterrupted || r.Stats.ArenaGCs == 0 {
		t.Fatalf("setup: stop=%v gcs=%d, want an interrupted post-GC solver", r.Stop, r.Stats.ArenaGCs)
	}
	s.ClearInterrupt()
	s.debugConflict = nil

	// New clauses over fresh variables integrate with the compacted
	// arena: (100 ∨ 101) is stored and watched, the unit ¬100 then forces
	// 101 through it at level 0.
	s.AddClause(cnf.NewClause(100, 101))
	s.AddClause(cnf.NewClause(-100))
	if s.propagate() != refUndef {
		t.Fatal("unexpected conflict on fresh variables")
	}
	if s.value(cnf.PosLit(101)) != lTrue {
		t.Fatal("clause added after a GC did not propagate")
	}
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("final status = %v, want UNSAT (pigeonhole core)", r.Status)
	}
}

// TestSatCacheStaleNeverMisclassifies is the regression test for the
// top-clause scan (§5): a literal that once satisfied a clause — the one
// the scan's mirror remembers — that has become unassigned or false, or
// that was stripped out of the clause entirely, must never make an
// unsatisfied clause look satisfied.
func TestSatCacheStaleNeverMisclassifies(t *testing.T) {
	t.Run("unassigned cache", func(t *testing.T) {
		s := New(DefaultOptions())
		s.ensureVars(4)
		c := addLearnt(s, cnf.PosLit(1), cnf.PosLit(2))
		s.newDecisionLevel()
		s.enqueue(cnf.PosLit(1), refUndef)
		if top, _ := s.currentTopClause(); !s.satisfied(c) || top != refUndef || s.top.sat[0].lit != cnf.PosLit(1) {
			t.Fatal("mirror not primed")
		}
		s.cancelUntil(0) // x1 unassigned; the mirror literal is now stale
		if s.satisfied(c) {
			t.Fatal("unassigned clause reported satisfied")
		}
		if top, _ := s.currentTopClause(); top != c {
			t.Fatal("top-clause scan skipped the unsatisfied clause")
		}
	})

	t.Run("false cache with another true literal", func(t *testing.T) {
		s := New(DefaultOptions())
		s.ensureVars(4)
		c := addLearnt(s, cnf.PosLit(1), cnf.PosLit(2))
		s.newDecisionLevel()
		s.enqueue(cnf.PosLit(1), refUndef)
		s.currentTopClause() // mirror = x1
		s.cancelUntil(0)
		s.newDecisionLevel()
		s.enqueue(cnf.NegLit(1), refUndef) // mirror literal now false
		s.enqueue(cnf.PosLit(2), refUndef) // ...but x2 satisfies the clause
		if !s.satisfied(c) {
			t.Fatal("clause with a true literal reported unsatisfied")
		}
		if top, _ := s.currentTopClause(); top != refUndef || s.top.sat[0].lit != cnf.PosLit(2) {
			t.Fatalf("mirror not refreshed: top %v, lit %v", top, s.top.sat[0].lit)
		}
	})

	t.Run("cache literal stripped at level 0", func(t *testing.T) {
		s := New(DefaultOptions())
		s.AddClause(cnf.NewClause(1, 2, 3))
		c := s.clauses[0]
		s.newDecisionLevel()
		s.enqueue(cnf.PosLit(1), refUndef)
		if !s.satisfied(c) {
			t.Fatal("satisfied clause not detected")
		}
		s.cancelUntil(0)
		// x1 false at level 0: the literal is stripped from the clause.
		s.enqueue(cnf.NegLit(1), refUndef)
		s.simplifyLevel0()
		if len(s.clauses) != 1 || s.ca.size(s.clauses[0]) != 2 {
			t.Fatalf("clause not stripped: %v", s.ca.lits(s.clauses[0]))
		}
		if s.satisfied(s.clauses[0]) {
			t.Fatal("stripped clause misclassified as satisfied")
		}
	})
}
