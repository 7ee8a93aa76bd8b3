package bench

import (
	"testing"

	"berkmin"
	"berkmin/internal/gen"
)

func newBenchSolver(inst gen.Instance) *berkmin.Solver {
	s := berkmin.New()
	so := berkmin.DefaultSimplifyOptions()
	s.SetSimplify(&so)
	s.AddFormula(inst.Formula)
	return s
}

// TestQueryStreamAgrees: both paths return identical verdicts on every
// query of the stream (timings vary, correctness must not).
func TestQueryStreamAgrees(t *testing.T) {
	for _, simp := range []bool{false, true} {
		r := QueryStream(QueryStreamInstance(Small), 24, simp)
		if r.Mismatches != 0 {
			t.Fatalf("simplify=%v: %d verdict mismatches between reuse and rebuild", simp, r.Mismatches)
		}
		if r.Reuse <= 0 || r.Rebuild <= 0 {
			t.Fatalf("simplify=%v: missing timings: %+v", simp, r)
		}
	}
}

// BenchmarkQueryStream guards the steady-state cost of one pooled query:
// Get (a Reset solver), SolveAssuming, Put. The snapshot is captured once
// outside the loop — the benchmark measures reuse, not capture.
func BenchmarkQueryStream(b *testing.B) {
	inst := QueryStreamInstance(Small)
	s := newBenchSolver(inst)
	pool := s.Snapshot().NewPool()
	numVars := inst.Formula.NumVars
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := pool.Get()
		w.SolveAssuming(queryLit(numVars, i))
		pool.Put(w)
	}
}

// BenchmarkPoolTempGroupQuery guards the steady-state cost of one pooled
// temp-clause query: Get, a clause group with two temporary clauses,
// SolveAssuming, ReleaseGroup, Put. Put retires the group and recycles the
// solver, so after the warm-up query every Get is a hit; the benchmark
// fails if the pool misses or drops (a clone per query would be back).
func BenchmarkPoolTempGroupQuery(b *testing.B) {
	inst := QueryStreamInstance(Small)
	s := newBenchSolver(inst)
	pool := s.Snapshot().NewPool()
	numVars := inst.Formula.NumVars
	query := func(i int) {
		w := pool.Get()
		g := w.NewClauseGroup()
		w.AddClauseGroup(g, queryLit(numVars, i), queryLit(numVars, i+7), queryLit(numVars, i+12))
		w.AddClauseGroup(g, queryLit(numVars, i+3), queryLit(numVars, i+10), queryLit(numVars, i+17))
		w.SolveAssuming(queryLit(numVars, i+5))
		w.ReleaseGroup(g)
		pool.Put(w)
	}
	query(0) // the pool's one miss
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query(i + 1)
	}
	b.StopTimer()
	if st := pool.Stats(); st.Misses != 1 || st.Dropped != 0 {
		b.Fatalf("pool %+v: a temp-group query was not recycled", st)
	}
}
