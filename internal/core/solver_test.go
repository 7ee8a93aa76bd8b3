package core

import (
	"math/rand"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/dpll"
)

func mk(t *testing.T, opt Options, clauses ...[]int) *Solver {
	t.Helper()
	s := New(opt)
	for _, c := range clauses {
		s.AddClause(cnf.NewClause(c...))
	}
	return s
}

func TestEmptyFormulaSat(t *testing.T) {
	s := New(DefaultOptions())
	r := s.Solve()
	if r.Status != StatusSat {
		t.Fatalf("status = %v", r.Status)
	}
}

func TestSingleUnit(t *testing.T) {
	s := mk(t, DefaultOptions(), []int{1})
	r := s.Solve()
	if r.Status != StatusSat || !r.Model[1] {
		t.Fatalf("got %v model=%v", r.Status, r.Model)
	}
}

func TestContradictingUnits(t *testing.T) {
	s := mk(t, DefaultOptions(), []int{1}, []int{-1})
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.Clause{})
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
}

func TestTautologyDropped(t *testing.T) {
	s := mk(t, DefaultOptions(), []int{1, -1}, []int{2})
	r := s.Solve()
	if r.Status != StatusSat || !r.Model[2] {
		t.Fatalf("got %v", r.Status)
	}
}

func TestImplicationChain(t *testing.T) {
	clauses := [][]int{{1}}
	for i := 1; i < 50; i++ {
		clauses = append(clauses, []int{-i, i + 1})
	}
	s := mk(t, DefaultOptions(), clauses...)
	r := s.Solve()
	if r.Status != StatusSat {
		t.Fatalf("status = %v", r.Status)
	}
	for v := 1; v <= 50; v++ {
		if !r.Model[v] {
			t.Fatalf("x%d should be true", v)
		}
	}
	if r.Stats.Decisions != 0 {
		t.Fatalf("chain needs no decisions, used %d", r.Stats.Decisions)
	}
}

func TestSimpleConflictAnalysis(t *testing.T) {
	// From the paper's §2 example:
	// (a ∨ ¬b)(b ∨ ¬c ∨ y)(c ∨ ¬d ∨ x)(c ∨ d), plus units ¬x, ¬y to mirror
	// the preassignment. Satisfiable overall (e.g. a=b=c=1).
	s := mk(t, DefaultOptions(),
		[]int{1, -2}, []int{2, -3, 5}, []int{3, -4, 6}, []int{3, 4},
		[]int{-5}, []int{-6})
	r := s.Solve()
	if r.Status != StatusSat {
		t.Fatalf("status = %v", r.Status)
	}
	m := cnf.Assignment(r.Model)
	f := cnf.New(6)
	f.AddClause(1, -2)
	f.AddClause(2, -3, 5)
	f.AddClause(3, -4, 6)
	f.AddClause(3, 4)
	f.AddClause(-5)
	f.AddClause(-6)
	if !m.Satisfies(f) {
		t.Fatal("model check failed")
	}
}

// pigeons-into-holes: n+1 pigeons, n holes — canonical small UNSAT family.
func pigeonhole(n int) *cnf.Formula {
	b := cnf.NewBuilder()
	// p[i][j]: pigeon i sits in hole j.
	p := make([][]cnf.Var, n+1)
	for i := range p {
		p[i] = b.FreshN(n)
	}
	for i := 0; i <= n; i++ {
		c := make([]cnf.Lit, n)
		for j := 0; j < n; j++ {
			c[j] = cnf.PosLit(p[i][j])
		}
		b.Clause(c...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= n; i++ {
			for k := i + 1; k <= n; k++ {
				b.Clause(cnf.NegLit(p[i][j]), cnf.NegLit(p[k][j]))
			}
		}
	}
	return b.Formula()
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New(DefaultOptions())
		s.AddFormula(pigeonhole(n))
		r := s.Solve()
		if r.Status != StatusUnsat {
			t.Fatalf("php(%d): status = %v", n, r.Status)
		}
	}
}

func TestPigeonholeSatWhenEnoughHoles(t *testing.T) {
	// n pigeons into n holes is satisfiable: drop pigeon n+1's clauses by
	// building the "square" version directly.
	b := cnf.NewBuilder()
	n := 4
	p := make([][]cnf.Var, n)
	for i := range p {
		p[i] = b.FreshN(n)
	}
	for i := 0; i < n; i++ {
		c := make([]cnf.Lit, n)
		for j := 0; j < n; j++ {
			c[j] = cnf.PosLit(p[i][j])
		}
		b.Clause(c...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			for k := i + 1; k < n; k++ {
				b.Clause(cnf.NegLit(p[i][j]), cnf.NegLit(p[k][j]))
			}
		}
	}
	f := b.Formula()
	s := New(DefaultOptions())
	s.AddFormula(f)
	r := s.Solve()
	if r.Status != StatusSat {
		t.Fatalf("status = %v", r.Status)
	}
	if !cnf.Assignment(r.Model).Satisfies(f) {
		t.Fatal("model check failed")
	}
}

func randomFormula(rng *rand.Rand, n, m, k int) *cnf.Formula {
	f := cnf.New(n)
	for i := 0; i < m; i++ {
		width := 1 + rng.Intn(k)
		c := make(cnf.Clause, 0, width)
		for j := 0; j < width; j++ {
			v := cnf.Var(1 + rng.Intn(n))
			c = append(c, cnf.MkLit(v, rng.Intn(2) == 0))
		}
		f.Add(c)
	}
	return f
}

// crossValidate runs the configuration against the brute-force oracle on
// hundreds of small random formulas.
func crossValidate(t *testing.T, name string, opt Options, iters int) {
	t.Helper()
	rng := rand.New(rand.NewSource(123))
	for iter := 0; iter < iters; iter++ {
		n := 3 + rng.Intn(10)
		m := 2 + rng.Intn(5*n)
		f := randomFormula(rng, n, m, 3)
		want := dpll.BruteForce(f)
		s := New(opt)
		s.AddFormula(f)
		r := s.Solve()
		if (r.Status == StatusSat) != want.Sat || r.Status == StatusUnknown {
			t.Fatalf("%s iter %d: got %v, oracle sat=%v\nclauses: %v",
				name, iter, r.Status, want.Sat, f.Clauses)
		}
		if r.Status == StatusSat {
			if !cnf.Assignment(r.Model).Satisfies(f) {
				t.Fatalf("%s iter %d: model does not satisfy\nclauses: %v",
					name, iter, f.Clauses)
			}
		}
	}
}

func TestCrossValidateDefault(t *testing.T) { crossValidate(t, "berkmin", DefaultOptions(), 400) }
func TestCrossValidateChaff(t *testing.T)   { crossValidate(t, "chaff", ChaffOptions(), 300) }
func TestCrossValidateLimmat(t *testing.T)  { crossValidate(t, "limmat", LimmatOptions(), 200) }
func TestCrossValidateLessSens(t *testing.T) {
	crossValidate(t, "less_sens", LessSensitivityOptions(), 200)
}
func TestCrossValidateLessMob(t *testing.T) { crossValidate(t, "less_mob", LessMobilityOptions(), 200) }
func TestCrossValidateLimited(t *testing.T) {
	crossValidate(t, "limited", LimitedKeepingOptions(), 200)
}
func TestCrossValidateMinimize(t *testing.T) {
	o := DefaultOptions()
	o.MinimizeLearnt = true
	crossValidate(t, "minimize", o, 300)
}
func TestCrossValidateOptimizedPick(t *testing.T) {
	o := DefaultOptions()
	o.OptimizedGlobalPick = true
	crossValidate(t, "strategy3", o, 300)
}
func TestCrossValidatePhaseSaving(t *testing.T) {
	o := DefaultOptions()
	o.PhaseSaving = true
	crossValidate(t, "phase", o, 250)
}
func TestCrossValidateAllPolarities(t *testing.T) {
	for _, p := range []PolarityMode{PolaritySatTop, PolarityUnsatTop, PolarityTake0, PolarityTake1, PolarityTakeRand} {
		crossValidate(t, "polarity", BranchOptions(p), 120)
	}
}
func TestCrossValidateRestartPolicies(t *testing.T) {
	for _, pol := range []RestartPolicy{RestartGeometric, RestartLuby, RestartNever} {
		o := DefaultOptions()
		o.Restart = pol
		o.RestartFirst = 4 // force frequent restarts to stress reduceDB
		o.RestartJitter = 2
		crossValidate(t, "restart", o, 150)
	}
}
func TestCrossValidateAggressiveRestarts(t *testing.T) {
	o := DefaultOptions()
	o.RestartFirst = 1 // restart after every conflict: worst case for looping
	o.RestartJitter = 0
	o.MarkPeriod = 1 // full anti-looping marking
	crossValidate(t, "restart1", o, 200)
}
func TestCrossValidateNoReduce(t *testing.T) {
	o := DefaultOptions()
	o.Reduce = ReduceNone
	o.RestartFirst = 3
	crossValidate(t, "noreduce", o, 150)
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := randomFormula(rng, 30, 120, 3)
	run := func() (Status, uint64, uint64) {
		s := New(DefaultOptions())
		s.AddFormula(f)
		r := s.Solve()
		return r.Status, r.Stats.Decisions, r.Stats.Conflicts
	}
	s1, d1, c1 := run()
	s2, d2, c2 := run()
	if s1 != s2 || d1 != d2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%v,%d,%d) vs (%v,%d,%d)", s1, d1, c1, s2, d2, c2)
	}
}

func TestSeedChangesSearch(t *testing.T) {
	// Different seeds may explore differently but must agree on the answer.
	rng := rand.New(rand.NewSource(6))
	f := randomFormula(rng, 20, 80, 3)
	want := dpll.Solve(f).Sat
	for seed := uint64(1); seed <= 5; seed++ {
		o := DefaultOptions()
		o.Seed = seed
		s := New(o)
		s.AddFormula(f)
		r := s.Solve()
		if (r.Status == StatusSat) != want {
			t.Fatalf("seed %d disagrees with oracle", seed)
		}
	}
}

func TestConflictLimit(t *testing.T) {
	o := DefaultOptions()
	o.MaxConflicts = 3
	s := New(o)
	s.AddFormula(pigeonhole(7))
	r := s.Solve()
	if r.Status != StatusUnknown {
		t.Fatalf("status = %v, want unknown under a 3-conflict budget", r.Status)
	}
	if r.Stats.Conflicts < 3 {
		t.Fatalf("conflicts = %d", r.Stats.Conflicts)
	}
}

func TestStatsPopulated(t *testing.T) {
	s := New(DefaultOptions())
	s.AddFormula(pigeonhole(5))
	r := s.Solve()
	if r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	st := r.Stats
	if st.Conflicts == 0 || st.Decisions == 0 || st.Propagations == 0 {
		t.Fatalf("stats look empty: %+v", st)
	}
	if st.LearntTotal == 0 {
		t.Fatal("no clauses learnt")
	}
	if st.InitialClauses == 0 || st.PeakLiveClauses < st.InitialClauses {
		t.Fatalf("clause accounting wrong: initial=%d peak=%d", st.InitialClauses, st.PeakLiveClauses)
	}
	if st.DatabaseRatio() < 1 || st.PeakRatio() < 1 {
		t.Fatalf("ratios wrong: %f %f", st.DatabaseRatio(), st.PeakRatio())
	}
	if st.Runtime <= 0 {
		t.Fatal("runtime not recorded")
	}
}

func TestSkinEffectRecorded(t *testing.T) {
	s := New(DefaultOptions())
	s.AddFormula(pigeonhole(6))
	r := s.Solve()
	if r.Stats.TopClauseDecisions == 0 {
		t.Fatal("no top-clause decisions recorded")
	}
	if r.Stats.Skin.Total() != r.Stats.TopClauseDecisions {
		t.Fatalf("skin histogram total %d != top decisions %d",
			r.Stats.Skin.Total(), r.Stats.TopClauseDecisions)
	}
}

func TestVariablesWithoutClauses(t *testing.T) {
	// Var 5 appears in no clause; still must be assigned in the model.
	s := New(DefaultOptions())
	s.ensureVars(5)
	s.AddClause(cnf.NewClause(1, 2))
	r := s.Solve()
	if r.Status != StatusSat {
		t.Fatalf("status = %v", r.Status)
	}
	if len(r.Model) != 6 {
		t.Fatalf("model length = %d", len(r.Model))
	}
}

func TestAddAfterUnsatIsNoop(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1))
	s.AddClause(cnf.NewClause(-1))
	s.AddClause(cnf.NewClause(2, 3)) // ignored; already unsat
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
}

func TestDuplicateLiteralsMerged(t *testing.T) {
	s := mk(t, DefaultOptions(), []int{1, 1, 1}, []int{-1, -1, 2})
	r := s.Solve()
	if r.Status != StatusSat {
		t.Fatalf("status = %v", r.Status)
	}
	if !r.Model[1] || !r.Model[2] {
		t.Fatalf("model = %v", r.Model)
	}
}
