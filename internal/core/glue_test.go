package core

import (
	"math/rand"
	"testing"

	"berkmin/internal/cnf"
)

// naiveGlue is the reference glue (LBD) definition: the number of distinct
// decision levels among the clause's literals, counted with a map.
func naiveGlue(s *Solver, lits []cnf.Lit) int {
	levels := make(map[int32]bool)
	for _, l := range lits {
		levels[s.vlevel[l.Var()]] = true
	}
	return len(levels)
}

// TestComputeGlueMatchesNaive cross-checks the stamped single-pass glue
// computation against the naive per-clause level count on random trails:
// random level assignments, random clauses (with duplicate variables), and
// back-to-back calls that must not contaminate each other.
func TestComputeGlueMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for iter := 0; iter < 300; iter++ {
		n := 5 + rng.Intn(40)
		s := New(DefaultOptions())
		s.ensureVars(n)
		maxLevel := rng.Intn(n + 1)
		for v := 1; v <= n; v++ {
			s.vlevel[v] = int32(rng.Intn(maxLevel + 1))
		}
		for rep := 0; rep < 3; rep++ { // consecutive calls share the scratch
			k := 1 + rng.Intn(2*n)
			lits := make([]cnf.Lit, k)
			for i := range lits {
				lits[i] = cnf.MkLit(cnf.Var(rng.Intn(n)+1), rng.Intn(2) == 0)
			}
			want := naiveGlue(s, lits)
			if got := s.computeGlue(lits); got != want {
				t.Fatalf("iter %d rep %d: computeGlue = %d, naive = %d (lits %v)",
					iter, rep, got, want, lits)
			}
		}
	}
}

// TestComputeGlueStampWrap drives the stamp counter across its uint32
// wrap, where the scratch must be cleared instead of trusting stale marks.
func TestComputeGlueStampWrap(t *testing.T) {
	s := New(DefaultOptions())
	s.ensureVars(4)
	s.vlevel[1], s.vlevel[2], s.vlevel[3] = 1, 2, 3
	lits := []cnf.Lit{cnf.PosLit(1), cnf.PosLit(2), cnf.PosLit(3)}
	if got := s.computeGlue(lits); got != 3 {
		t.Fatalf("pre-wrap glue = %d, want 3", got)
	}
	s.glueStamp = ^uint32(0) // next call wraps to 0
	if got := s.computeGlue(lits); got != 3 {
		t.Fatalf("post-wrap glue = %d, want 3", got)
	}
}

// TestLearnTimeGlue checks every learn-time glue of a real (UNSAT) solve
// against the naive level count, and that Stats.GlueSum sums them. The
// hook runs after backtracking, but cancelUntil leaves vlevel untouched,
// so the naive recount still sees the levels analyze counted.
func TestLearnTimeGlue(t *testing.T) {
	o := TieredOptions()
	s := New(o)
	s.AddFormula(pigeonhole(4))
	var glues []int
	s.debugLearnt = func(lits []cnf.Lit) {
		glues = append(glues, s.lastGlue)
		if want := naiveGlue(s, lits); s.lastGlue != want {
			t.Fatalf("learn-time glue %d != naive %d for %v", s.lastGlue, want, lits)
		}
	}
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	if len(glues) == 0 {
		t.Fatal("no learnt clauses observed")
	}
	var sum uint64
	for _, g := range glues {
		sum += uint64(g)
	}
	if s.stats.GlueSum != sum {
		t.Fatalf("GlueSum = %d, observed sum = %d", s.stats.GlueSum, sum)
	}
}

// TestGlueRecomputePromotes checks the "update glue on use" rule: a LOCAL
// clause whose literals collapse to fewer levels on reuse is promoted —
// here all the way to CORE — with the gauges and promotion counter moving.
func TestGlueRecomputePromotes(t *testing.T) {
	o := TieredOptions()
	s := New(o)
	c := mkLearnt(s, 1, 8, 5)
	s.ca.setGlue(c, 8)
	s.ca.setTier(c, tierLocal)
	s.recountTiers()
	// All eight variables now sit on one decision level: reuse must see
	// glue 1 ≤ CoreGlue and promote.
	for _, l := range s.ca.lits(c) {
		s.vlevel[l.Var()] = 3
	}
	s.bumpResponsible(c)
	if g := s.ca.glue(c); g != 1 {
		t.Fatalf("glue after reuse = %d, want 1", g)
	}
	if s.ca.tier(c) != tierCore {
		t.Fatalf("tier after reuse = %d, want CORE", s.ca.tier(c))
	}
	if !s.ca.touched(c) {
		t.Fatal("reuse must mark the clause touched")
	}
	if s.stats.TierPromotions != 1 {
		t.Fatalf("TierPromotions = %d, want 1", s.stats.TierPromotions)
	}
	if s.stats.CoreLearnts != 1 || s.stats.LocalLearnts != 0 {
		t.Fatalf("gauges core=%d local=%d after promotion",
			s.stats.CoreLearnts, s.stats.LocalLearnts)
	}
}

// TestGlueNeverWorsens: a reuse across more levels than the stored glue
// must not increase it (glue is monotone non-increasing).
func TestGlueNeverWorsens(t *testing.T) {
	o := TieredOptions()
	s := New(o)
	c := mkLearnt(s, 1, 4, 0)
	s.ca.setGlue(c, 3)
	s.ca.setTier(c, tierMid)
	s.recountTiers()
	for i, l := range s.ca.lits(c) {
		s.vlevel[l.Var()] = int32(i) // 4 distinct levels > stored glue 3
	}
	s.bumpResponsible(c)
	if g := s.ca.glue(c); g != 3 {
		t.Fatalf("glue worsened to %d, want 3", g)
	}
	if s.ca.tier(c) != tierMid {
		t.Fatalf("tier changed to %d on a non-improving reuse", s.ca.tier(c))
	}
}

// TestExportByGlue checks the export filter at its constants: a clause
// longer than shareMaxLen is exported only when its glue is at most
// shareMaxGlue, a clause within the length cap always is, and the glue
// travels to the hook.
func TestExportByGlue(t *testing.T) {
	s := New(DefaultOptions())
	s.ensureVars(12)
	type export struct {
		lits []cnf.Lit
		glue int
	}
	var got []export
	s.SetLearntExport(func(lits []cnf.Lit, glue int) {
		got = append(got, export{lits, glue})
	})
	long := cnf.NewClause(1, 2, 3, 4, 5, 6, 7, 8, 9) // shareMaxLen+1 literals
	s.exportLearnt(long, shareMaxGlue)
	if len(got) != 1 || got[0].glue != shareMaxGlue || len(got[0].lits) != 9 {
		t.Fatalf("long low-glue export missing or mangled: %+v", got)
	}
	s.exportLearnt(long, shareMaxGlue+1) // fails both filters
	if len(got) != 1 {
		t.Fatal("long high-glue clause was exported")
	}
	s.exportLearnt(long[:shareMaxLen], shareMaxGlue+1) // passes the length filter
	if len(got) != 2 || len(got[1].lits) != shareMaxLen {
		t.Fatal("short high-glue clause not exported")
	}
	if s.stats.ExportedClauses != 2 {
		t.Fatalf("ExportedClauses = %d, want 2", s.stats.ExportedClauses)
	}
}

// TestImportGluePlacesTier: a foreign clause arrives with its exporter's
// glue and must land in the matching retention tier (and be clamped by its
// simplified length).
func TestImportGluePlacesTier(t *testing.T) {
	o := TieredOptions()
	s := New(o)
	s.AddClause(cnf.NewClause(1, 2, 3, 4, 5, 6, 7, 8)) // keeps vars alive
	s.Import([]cnf.Lit{cnf.FromDimacs(2), cnf.FromDimacs(3), cnf.FromDimacs(4), cnf.FromDimacs(5)}, 2)
	s.Import([]cnf.Lit{cnf.FromDimacs(-2), cnf.FromDimacs(-3), cnf.FromDimacs(6), cnf.FromDimacs(7)}, 5)
	if !s.drainImports() {
		t.Fatal("imports made the instance UNSAT")
	}
	if len(s.learnts) != 2 {
		t.Fatalf("learnts = %d, want 2", len(s.learnts))
	}
	if tier := s.ca.tier(s.learnts[0]); tier != tierCore {
		t.Fatalf("glue-2 import in tier %d, want CORE", tier)
	}
	if tier := s.ca.tier(s.learnts[1]); tier != tierMid {
		t.Fatalf("glue-5 import in tier %d, want TIER2", tier)
	}
	checkInvariants(t, s)
}
