package conc

import (
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/core"
)

// TestHubDedupIsOrderIndependent: the same clause exported by two members
// in different literal orders must cross the hub exactly once — the
// fingerprint is commutative, so no canonicalization (and no allocation)
// is needed on the publish path.
func TestHubDedupIsOrderIndependent(t *testing.T) {
	a := core.New(core.DefaultOptions())
	b := core.New(core.DefaultOptions())
	for _, s := range []*core.Solver{a, b} {
		s.AddFormula(cnf.New(8))
	}
	h := newHub([]*core.Solver{a, b})

	h.Publish(0, []cnf.Lit{cnf.PosLit(1), cnf.NegLit(2), cnf.PosLit(3)}, 2)
	h.Publish(1, []cnf.Lit{cnf.PosLit(3), cnf.PosLit(1), cnf.NegLit(2)}, 2)
	if got := len(h.seen); got != 1 {
		t.Fatalf("permuted duplicate got its own dedup entry: %d entries, want 1", got)
	}

	// A genuinely different clause must not be suppressed.
	h.Publish(0, []cnf.Lit{cnf.PosLit(1), cnf.NegLit(2), cnf.PosLit(4)}, 2)
	if got := len(h.seen); got != 2 {
		t.Fatalf("distinct clause deduped away: %d entries, want 2", got)
	}
}

// TestHubPublishFromOutside: from = -1 delivers to every member (the
// cube scheduler publishes refuted-cube clauses that no member exported).
func TestHubPublishFromOutside(t *testing.T) {
	a := core.New(core.DefaultOptions())
	b := core.New(core.DefaultOptions())
	for _, s := range []*core.Solver{a, b} {
		s.AddFormula(cnf.New(4))
	}
	h := newHub([]*core.Solver{a, b})
	h.Publish(-1, []cnf.Lit{cnf.PosLit(1), cnf.PosLit(2)}, 2)
	for i, s := range []*core.Solver{a, b} {
		r := s.Solve()
		if r.Status != core.StatusSat {
			t.Fatalf("member %d: %v", i, r.Status)
		}
		if st := s.Stats(); st.ImportedClauses != 1 {
			t.Fatalf("member %d integrated %d clauses, want 1", i, st.ImportedClauses)
		}
	}
}

// BenchmarkHubPublish measures the export hot path: a member publishing a
// clause the hub has already seen (the steady state once the portfolio
// warms up — every member keeps re-learning popular short clauses). The
// old implementation built a canonicalized string key per call; the
// fingerprint set must do this with 0 allocs/op.
func BenchmarkHubPublish(b *testing.B) {
	s := core.New(core.DefaultOptions())
	s.AddFormula(cnf.New(16))
	h := newHub([]*core.Solver{s})

	// A rotating set of clauses, all published once up front so the
	// benchmark loop exercises the dedup-hit path.
	clauses := make([][]cnf.Lit, 64)
	for i := range clauses {
		v := cnf.Var(i%15 + 1)
		clauses[i] = []cnf.Lit{cnf.PosLit(v), cnf.NegLit(v + 1), cnf.MkLit(cnf.Var(i%13+1), i%2 == 0)}
		h.Publish(0, clauses[i], 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Publish(0, clauses[i%len(clauses)], 2)
	}
}
