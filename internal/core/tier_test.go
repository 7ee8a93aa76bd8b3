package core

import (
	"testing"

	"berkmin/internal/cnf"
)

// mkTiered pushes a learnt clause with the given length, activity, glue
// and tier onto the stack (over fresh variables, like mkLearnt).
func mkTiered(s *Solver, firstVar, length int, act int64, glue int, tier clauseTier) clauseRef {
	c := mkLearnt(s, firstVar, length, act)
	s.ca.setGlue(c, glue)
	s.ca.setTier(c, tier)
	return c
}

// tieredForTest returns a tiered solver whose cleaning target is 1, so its
// next reduceTiered runs a full pass.
func tieredForTest() *Solver {
	s := New(TieredOptions())
	s.tieredTarget = 1
	return s
}

// finishCleaning mimics the tail of reduceDB after a raw reduceTiered
// call in these unit tests: watches and occurrence lists are rebuilt and
// the tier gauges recounted, restoring the state checkInvariants expects.
func finishCleaning(s *Solver) {
	s.rebuildWatches()
	s.rebuildBinOcc()
	s.recountTiers()
}

// TestReduceTieredCoreAndBinaryNeverDeleted: CORE clauses (by glue) and
// binary learnt clauses survive a cleaning that wipes out passive LOCAL
// clauses around them — the headline retention guarantee of the tiers.
func TestReduceTieredCoreAndBinaryNeverDeleted(t *testing.T) {
	s := tieredForTest()
	base := 1
	var protectedRefs []clauseRef
	for i := 0; i < 24; i++ {
		var c clauseRef
		switch i % 4 {
		case 0: // CORE by glue: permanent
			c = mkTiered(s, base, 10, 0, 2, tierCore)
			protectedRefs = append(protectedRefs, c)
		case 1: // binary: CORE by construction
			c = mkTiered(s, base, 2, 0, 2, tierCore)
			protectedRefs = append(protectedRefs, c)
		default: // passive LOCAL fodder
			c = mkTiered(s, base, 10, 0, 9, tierLocal)
		}
		base += s.ca.size(c)
	}
	s.recountTiers()
	before := len(s.learnts)
	s.reduceTiered()
	if len(s.learnts) >= before {
		t.Fatal("cleaning deleted nothing")
	}
	live := make(map[clauseRef]bool, len(s.learnts))
	for _, c := range s.learnts {
		live[c] = true
	}
	for _, c := range protectedRefs {
		if !live[c] || s.ca.deleted(c) {
			t.Fatalf("CORE/binary clause %d was deleted by the cleaning", c)
		}
	}
	finishCleaning(s)
	checkInvariants(t, s)
}

// TestReduceTieredDemotesInactiveTier2: a TIER2 clause that sat out the
// whole inter-cleaning interval is demoted to LOCAL; one that participated
// in a conflict stays, with its touch mark consumed.
func TestReduceTieredDemotesInactiveTier2(t *testing.T) {
	s := tieredForTest()
	idle := mkTiered(s, 1, 10, 50, 5, tierMid)
	active := mkTiered(s, 11, 10, 50, 5, tierMid)
	s.ca.setTouched(active)
	mkTiered(s, 21, 10, 0, 9, tierLocal) // topmost: survives, keeps m-1 busy
	s.recountTiers()
	s.reduceTiered()
	if got := s.ca.tier(idle); got != tierLocal {
		t.Fatalf("idle TIER2 clause in tier %d, want LOCAL", got)
	}
	if got := s.ca.tier(active); got != tierMid {
		t.Fatalf("touched TIER2 clause in tier %d, want TIER2", got)
	}
	if s.ca.touched(active) {
		t.Fatal("touch mark must be consumed by the cleaning")
	}
	if s.stats.TierDemotions != 1 {
		t.Fatalf("TierDemotions = %d, want 1", s.stats.TierDemotions)
	}
	finishCleaning(s)
	checkInvariants(t, s)
}

// TestReduceTieredHalvesLocalByActivity: the LOCAL tier loses its passive
// half — lowest activity first — while the active half survives.
func TestReduceTieredHalvesLocalByActivity(t *testing.T) {
	s := tieredForTest()
	base := 1
	var refs []clauseRef
	for i := 0; i < 10; i++ {
		c := mkTiered(s, base, 8, int64(i*10), 8, tierLocal)
		base += s.ca.size(c)
		refs = append(refs, c)
	}
	s.recountTiers()
	s.reduceTiered()
	// Candidates: all 10; worst half by activity = refs[0..4]; refs[9] is
	// the topmost clause and would survive even if passive.
	for i, c := range refs {
		deleted := s.ca.deleted(c)
		if i < 5 && !deleted {
			t.Fatalf("passive LOCAL clause %d (act %d) survived", i, i*10)
		}
		if i >= 5 && deleted {
			t.Fatalf("active LOCAL clause %d (act %d) was deleted", i, i*10)
		}
	}
	if s.stats.DeletedTotal != 5 {
		t.Fatalf("DeletedTotal = %d, want 5", s.stats.DeletedTotal)
	}
	finishCleaning(s)
	checkInvariants(t, s)
}

// TestReduceTieredRespectsTopAndMarked: the §8 anti-looping protections
// carry over — the topmost clause and a protect-marked clause survive even
// as the most passive LOCAL candidates.
func TestReduceTieredRespectsTopAndMarked(t *testing.T) {
	s := tieredForTest()
	base := 1
	marked := mkTiered(s, base, 8, 0, 8, tierLocal)
	base += 8
	s.ca.setProtect(marked)
	for i := 0; i < 6; i++ {
		c := mkTiered(s, base, 8, 100, 8, tierLocal)
		base += s.ca.size(c)
	}
	top := mkTiered(s, base, 8, 0, 8, tierLocal) // passive AND topmost
	s.recountTiers()
	s.reduceTiered()
	if s.ca.deleted(marked) {
		t.Fatal("protect-marked clause was deleted")
	}
	if s.ca.deleted(top) {
		t.Fatal("topmost clause was deleted")
	}
	finishCleaning(s)
	checkInvariants(t, s)
}

// TestReduceTieredTargetGates: below the growing database-size target the
// cleaning is a no-op, and crossing the target advances it.
func TestReduceTieredTargetGates(t *testing.T) {
	s := New(TieredOptions())
	if s.tieredTarget != tieredFirstReduce {
		t.Fatalf("tieredTarget = %d at start, want %d", s.tieredTarget, tieredFirstReduce)
	}
	s.tieredTarget = 8
	base := 1
	for i := 0; i < 6; i++ {
		c := mkTiered(s, base, 9, 0, 9, tierLocal)
		base += s.ca.size(c)
	}
	s.recountTiers()
	s.reduceTiered() // 6 < 8: gated
	if len(s.learnts) != 6 || s.stats.DeletedTotal != 0 {
		t.Fatalf("gated cleaning deleted clauses (kept %d)", len(s.learnts))
	}
	for i := 0; i < 4; i++ {
		c := mkTiered(s, base, 9, 0, 9, tierLocal)
		base += s.ca.size(c)
	}
	s.recountTiers()
	s.reduceTiered() // 10 >= 8: runs, target grows by tieredReduceInc
	if s.stats.DeletedTotal == 0 {
		t.Fatal("cleaning above the target deleted nothing")
	}
	if want := 8 + tieredReduceInc; s.tieredTarget != want {
		t.Fatalf("tieredTarget = %d, want %d", s.tieredTarget, want)
	}
}

// TestTieredSolveEndToEnd solves real instances under the full tiered
// configuration with a churn-heavy schedule, checking the known verdicts,
// that cleanings actually deleted clauses, and the invariants afterwards.
func TestTieredSolveEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *cnf.Formula
		want Status
	}{
		{"php5", pigeonhole(5), StatusUnsat},
		{"php6", pigeonhole(6), StatusUnsat},
	} {
		s := newChurnSolver(churnOptions())
		s.AddFormula(tc.f)
		r := s.Solve()
		if r.Status != tc.want {
			t.Fatalf("%s: status = %v, want %v", tc.name, r.Status, tc.want)
		}
		if r.Stats.DeletedTotal == 0 {
			t.Fatalf("%s: tiered cleaning never deleted a clause (schedule too lax for the test)", tc.name)
		}
		checkInvariants(t, s)
	}
}
