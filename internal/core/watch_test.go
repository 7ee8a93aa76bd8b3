package core

import (
	"math/rand"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/dpll"
)

// TestPropagateChain: a unit triggers a full implication chain.
func TestPropagateChain(t *testing.T) {
	s := New(DefaultOptions())
	for i := 1; i < 20; i++ {
		s.AddClause(cnf.NewClause(-i, i+1))
	}
	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(1), refUndef)
	if confl := s.propagate(); confl != refUndef {
		t.Fatal("no conflict expected")
	}
	for v := 1; v <= 20; v++ {
		if s.value(cnf.PosLit(cnf.Var(v))) != lTrue {
			t.Fatalf("x%d not propagated", v)
		}
	}
	if s.stats.Propagations == 0 {
		t.Fatal("propagations not counted")
	}
}

// TestPropagateConflictDetection: contradictory implications conflict, and
// the reported clause is genuinely falsified.
func TestPropagateConflictDetection(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(-1, 2))
	s.AddClause(cnf.NewClause(-1, -2))
	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(1), refUndef)
	confl := s.propagate()
	if confl == refUndef {
		t.Fatal("expected conflict")
	}
	for _, l := range s.ca.lits(confl) {
		if s.value(l) != lFalse {
			t.Fatalf("conflict clause literal %v not false", l)
		}
	}
}

// TestPropagateUsesReasonSlotZero: the propagated literal must sit in
// lits[0] of its reason (the conflict-analysis invariant).
func TestPropagateUsesReasonSlotZero(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(5, -1, -2)) // becomes unit after ¬x... wait: assigning 1,2 true falsifies -1,-2
	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(1), refUndef)
	s.enqueue(cnf.PosLit(2), refUndef)
	if confl := s.propagate(); confl != refUndef {
		t.Fatal("no conflict expected")
	}
	r := s.reason[5]
	if r == refUndef || s.ca.lits(r)[0] != cnf.PosLit(5) {
		t.Fatalf("reason slot 0 = %v, want x5", s.ca.lits(r))
	}
}

// TestBacktrackRestoresWatchConsistency: solve, backtrack, re-propagate at
// random — the engine must stay consistent. Differential check vs DPLL.
func TestBacktrackRestoresWatchConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 60; iter++ {
		n := 5 + rng.Intn(8)
		f := randomFormula(rng, n, 4*n, 3)
		s := New(DefaultOptions())
		s.AddFormula(f)
		// Random assault: decide/propagate/backtrack a few times.
		for round := 0; round < 5 && s.ok; round++ {
			v := cnf.Var(1 + rng.Intn(n))
			if s.vals[cnf.PosLit(v)] != lUndef {
				continue
			}
			s.newDecisionLevel()
			s.enqueue(cnf.MkLit(v, rng.Intn(2) == 0), refUndef)
			s.propagate()
			if rng.Intn(2) == 0 && s.decisionLevel() > 0 {
				s.cancelUntil(rng.Intn(s.decisionLevel()))
			}
		}
		s.cancelUntil(0)
		s.qhead = 0 // replay all level-0 assignments
		if s.propagate() != refUndef {
			continue // level-0 conflict: formula unsat; fine
		}
		r := s.Solve()
		want := dpll.Solve(f).Sat
		if (r.Status == StatusSat) != want {
			t.Fatalf("iter %d: engine says %v, dpll says sat=%v", iter, r.Status, want)
		}
	}
}

// TestBinaryReasonLiteralEncoded: an assignment propagated through the
// binary tier carries a literal-encoded antecedent (refBin + the implying
// false literal), and conflict analysis resolves it into a correct learnt
// clause.
func TestBinaryReasonLiteralEncoded(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(-1, 2)) // x1 → x2
	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(1), refUndef)
	if confl := s.propagate(); confl != refUndef {
		t.Fatal("no conflict expected")
	}
	if s.reason[2] != refBin {
		t.Fatalf("reason[2] = %d, want refBin", s.reason[2])
	}
	if s.binReason[2] != cnf.NegLit(1) {
		t.Fatalf("binReason[2] = %v, want ¬x1 (the falsified clause literal)", s.binReason[2])
	}
	if s.stats.BinPropagations != 1 {
		t.Fatalf("BinPropagations = %d, want 1", s.stats.BinPropagations)
	}
}

// TestBinaryConflictReportsArenaClause: a conflict found on the binary
// fast path must still hand analyze a real arena ref whose literals are
// all false.
func TestBinaryConflictReportsArenaClause(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(-1, 2))
	s.AddClause(cnf.NewClause(-1, -2))
	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(1), refUndef)
	confl := s.propagate()
	if confl == refUndef {
		t.Fatal("expected conflict")
	}
	if confl == refBin {
		t.Fatal("conflict reported as the refBin sentinel, not a clause")
	}
	if n := s.ca.size(confl); n != 2 {
		t.Fatalf("conflict clause size = %d, want the binary clause", n)
	}
	for _, l := range s.ca.lits(confl) {
		if s.value(l) != lFalse {
			t.Fatalf("conflict clause literal %v not false", l)
		}
	}
}

// TestBinaryTierAttachment: binary clauses live in binWatches (and the
// BinClauses gauge), longer clauses in the classic watch lists, and a
// wholesale rebuild preserves the split.
func TestBinaryTierAttachment(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2))
	s.AddClause(cnf.NewClause(1, 2, 3))
	if got := s.stats.BinClauses; got != 1 {
		t.Fatalf("BinClauses = %d, want 1", got)
	}
	if n := len(s.binWatches[cnf.PosLit(1)]); n != 1 {
		t.Fatalf("binWatches[x1] holds %d entries, want 1", n)
	}
	if n := len(s.watches[cnf.PosLit(1)]); n != 1 {
		t.Fatalf("watches[x1] holds %d entries, want 1 (the ternary)", n)
	}
	s.rebuildWatches()
	s.rebuildBinOcc()
	if got := s.stats.BinClauses; got != 1 {
		t.Fatalf("BinClauses after rebuild = %d, want 1", got)
	}
	if n := len(s.binWatches[cnf.PosLit(2)]); n != 1 {
		t.Fatalf("binWatches[x2] after rebuild holds %d entries, want 1", n)
	}
	if n := len(s.binOcc[cnf.PosLit(1)]); n != 1 || s.binOcc[cnf.PosLit(1)][0] != cnf.PosLit(2) {
		t.Fatalf("binOcc[x1] = %v, want [x2]", s.binOcc[cnf.PosLit(1)])
	}
}

// TestRemoveWatchPanicsOnMissing: a watcher removal that finds nothing is
// watch-list corruption and must panic loudly instead of no-opping.
func TestRemoveWatchPanicsOnMissing(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s silently ignored a missing entry", name)
			}
		}()
		f()
	}
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2, 3))
	s.AddClause(cnf.NewClause(4, 5))
	phantom := s.ca.alloc([]cnf.Lit{cnf.PosLit(1), cnf.PosLit(2), cnf.PosLit(3)}, false)
	expectPanic("removeWatch", func() { s.removeWatch(cnf.PosLit(1), phantom) })
	expectPanic("removeBinWatch", func() { s.removeBinWatch(cnf.PosLit(4), phantom) })
	expectPanic("removeBinOcc", func() { s.removeBinOcc(cnf.PosLit(4), cnf.PosLit(9)) })
}

// TestDetachBothTiers: detach must unhook a clause from whichever tier it
// was attached to, keeping the gauge and partner lists consistent.
func TestDetachBothTiers(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2))
	s.AddClause(cnf.NewClause(3, 4, 5))
	bin, long := s.clauses[0], s.clauses[1]
	s.detach(bin)
	if got := s.stats.BinClauses; got != 0 {
		t.Fatalf("BinClauses after binary detach = %d, want 0", got)
	}
	if n := len(s.binWatches[cnf.PosLit(1)]) + len(s.binWatches[cnf.PosLit(2)]); n != 0 {
		t.Fatal("binary watcher entries survived detach")
	}
	if n := len(s.binOcc[cnf.PosLit(1)]) + len(s.binOcc[cnf.PosLit(2)]); n != 0 {
		t.Fatal("binary partner entries survived detach")
	}
	s.detach(long)
	if n := len(s.watches[cnf.PosLit(3)]) + len(s.watches[cnf.PosLit(4)]); n != 0 {
		t.Fatal("long watcher entries survived detach")
	}
}

// TestSatisfiedCache: the blocker cache answers without rescanning, and is
// invalidated correctly by value changes.
func TestSatisfiedCache(t *testing.T) {
	s := New(DefaultOptions())
	s.ensureVars(3)
	c := s.ca.alloc([]cnf.Lit{cnf.PosLit(1), cnf.PosLit(2), cnf.PosLit(3)}, false)
	if s.satisfied(c) {
		t.Fatal("unassigned clause reported satisfied")
	}
	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(2), refUndef)
	if !s.satisfied(c) {
		t.Fatal("satisfied clause not detected")
	}
	if s.ca.satCache(c) != cnf.PosLit(2) {
		t.Fatalf("cache = %v", s.ca.satCache(c))
	}
	s.cancelUntil(0)
	if s.satisfied(c) {
		t.Fatal("stale cache accepted after backtrack")
	}
}

// TestRebuildWatchesPreservesBehavior: after a wholesale watch rebuild the
// solver still solves correctly.
func TestRebuildWatchesPreservesBehavior(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := randomFormula(rng, 12, 50, 3)
	s := New(DefaultOptions())
	s.AddFormula(f)
	s.rebuildWatches()
	s.rebuildBinOcc()
	want := dpll.Solve(f).Sat
	if r := s.Solve(); (r.Status == StatusSat) != want {
		t.Fatalf("engine %v vs dpll sat=%v", r.Status, want)
	}
}
