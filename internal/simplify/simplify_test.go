package simplify

import (
	"math/rand"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/core"
	"berkmin/internal/dpll"
)

func TestTautologyRemoved(t *testing.T) {
	f := cnf.New(2)
	f.AddClause(1, -1)
	f.AddClause(2)
	o := Simplify(f, DefaultOptions())
	if o.Unsat || o.RemovedTautologies != 1 {
		t.Fatalf("outcome %+v", o)
	}
}

func TestUnitPropagationFixesChain(t *testing.T) {
	f := cnf.New(4)
	f.AddClause(1)
	f.AddClause(-1, 2)
	f.AddClause(-2, 3)
	f.AddClause(-3, 4)
	o := Simplify(f, DefaultOptions())
	if o.Unsat {
		t.Fatal("satisfiable chain declared unsat")
	}
	if o.PropagatedUnits != 4 {
		t.Fatalf("propagated = %d", o.PropagatedUnits)
	}
}

func TestUnsatDetectedByUP(t *testing.T) {
	f := cnf.New(1)
	f.AddClause(1)
	f.AddClause(-1)
	o := Simplify(f, DefaultOptions())
	if !o.Unsat {
		t.Fatal("contradiction missed")
	}
}

func TestEmptyClauseInput(t *testing.T) {
	f := cnf.New(1)
	f.Add(cnf.Clause{})
	if !Simplify(f, DefaultOptions()).Unsat {
		t.Fatal("empty clause missed")
	}
}

func TestSubsumptionRemovesSuperset(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(1, 2)
	f.AddClause(1, 2, 3) // subsumed
	o := Simplify(f, DefaultOptions())
	if o.RemovedSubsumed != 1 {
		t.Fatalf("subsumed = %d", o.RemovedSubsumed)
	}
	// Subsumption runs before elimination, so the superset is gone before
	// the pure literal 1 takes the remaining clause with it.
	if len(o.Elims) != 1 || len(o.Elims[0].Clauses) != 1 || o.Formula.NumClauses() != 0 {
		t.Fatalf("elims %v, clauses %v", o.Elims, o.Formula.Clauses)
	}
}

func TestSelfSubsumingResolution(t *testing.T) {
	// (1 2) and (-1 2 3): resolving on 1 gives (2 3) ⊂ (-1 2 3), so the
	// second clause strengthens to (2 3).
	f := cnf.New(3)
	f.AddClause(1, 2)
	f.AddClause(-1, 2, 3)
	o := Simplify(f, DefaultOptions())
	if o.StrengthenedLits == 0 {
		t.Fatal("no strengthening happened")
	}
	for _, c := range o.Formula.Clauses {
		if len(c) == 3 {
			t.Fatalf("clause %v not strengthened", c)
		}
	}
}

func TestVariableElimination(t *testing.T) {
	// v=2 occurs twice; eliminating it resolves (1 2)(−2 3) into (1 3).
	f := cnf.New(3)
	f.AddClause(1, 2)
	f.AddClause(-2, 3)
	o := Simplify(f, DefaultOptions())
	if o.EliminatedVars == 0 {
		t.Fatal("nothing eliminated")
	}
	for _, c := range o.Formula.Clauses {
		for _, l := range c {
			if l.Var() == 2 {
				t.Fatalf("variable 2 still occurs: %v", c)
			}
		}
	}
}

func TestPureLiteralElimination(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(1, 2)
	f.AddClause(1, 3)
	// x1 occurs only positively: its clauses are dropped as a
	// zero-resolvent elimination (not fixed as a unit — a pure literal is
	// satisfiability-preserving, not implied, so a unit would break DRUP).
	o := Simplify(f, DefaultOptions())
	if o.Unsat {
		t.Fatal("pure-literal case declared unsat")
	}
	if o.EliminatedVars == 0 {
		t.Fatal("pure literal not eliminated")
	}
	for _, c := range o.Formula.Clauses {
		for _, l := range c {
			if l.Var() == 1 {
				t.Fatalf("variable 1 still occurs: %v", c)
			}
		}
	}
	// Reconstruction must pick x1=1 to satisfy the dropped clauses.
	full := o.Extend(make([]bool, f.NumVars+1))
	if !cnf.Assignment(full).Satisfies(f) {
		t.Fatal("reconstructed model does not satisfy the original")
	}
}

func TestExtendReconstructsModels(t *testing.T) {
	f := cnf.New(4)
	f.AddClause(1, 2)
	f.AddClause(-2, 3)
	f.AddClause(-3, -4)
	o := Simplify(f, DefaultOptions())
	if o.Unsat {
		t.Fatal("satisfiable formula declared unsat")
	}
	s := core.New(core.DefaultOptions())
	s.AddFormula(o.Formula)
	r := s.Solve()
	if r.Status != core.StatusSat {
		t.Fatalf("simplified: %v", r.Status)
	}
	full := o.Extend(r.Model)
	if !cnf.Assignment(full).Satisfies(f) {
		t.Fatalf("reconstructed model does not satisfy the original")
	}
}

// TestEquisatisfiableRandom is the load-bearing test: preprocessing must
// preserve satisfiability exactly, and reconstructed models must satisfy
// the original formula — over hundreds of random instances.
func TestEquisatisfiableRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 300; iter++ {
		n := 3 + rng.Intn(9)
		m := 2 + rng.Intn(5*n)
		f := cnf.New(n)
		for i := 0; i < m; i++ {
			k := 1 + rng.Intn(3)
			c := make(cnf.Clause, 0, k)
			for j := 0; j < k; j++ {
				v := cnf.Var(1 + rng.Intn(n))
				c = append(c, cnf.MkLit(v, rng.Intn(2) == 0))
			}
			f.Add(c)
		}
		want := dpll.BruteForce(f).Sat
		o := Simplify(f, DefaultOptions())
		if o.Unsat {
			if want {
				t.Fatalf("iter %d: preprocessing refuted a satisfiable formula\n%v", iter, f.Clauses)
			}
			continue
		}
		s := core.New(core.DefaultOptions())
		s.AddFormula(o.Formula)
		r := s.Solve()
		if (r.Status == core.StatusSat) != want {
			t.Fatalf("iter %d: simplified solves to %v, original sat=%v\norig: %v\nsimp: %v",
				iter, r.Status, want, f.Clauses, o.Formula.Clauses)
		}
		if r.Status == core.StatusSat {
			full := o.Extend(r.Model)
			if !cnf.Assignment(full).Satisfies(f) {
				t.Fatalf("iter %d: reconstruction failed\norig: %v", iter, f.Clauses)
			}
		}
	}
}

// TestSimplifyBenchmarks sanity-checks preprocessing on real benchmark
// families: status must be preserved end to end.
func TestSimplifyBenchmarks(t *testing.T) {
	// A pigeonhole formula (UNSAT) exercises larger structure.
	b := cnf.NewBuilder()
	p := make([][]cnf.Var, 5)
	for i := range p {
		p[i] = b.FreshN(4)
	}
	for i := 0; i < 5; i++ {
		lits := make([]cnf.Lit, 4)
		for j := 0; j < 4; j++ {
			lits[j] = cnf.PosLit(p[i][j])
		}
		b.Clause(lits...)
	}
	for j := 0; j < 4; j++ {
		for i := 0; i < 5; i++ {
			for k := i + 1; k < 5; k++ {
				b.Clause(cnf.NegLit(p[i][j]), cnf.NegLit(p[k][j]))
			}
		}
	}
	hole := b.Formula()
	o := Simplify(hole, DefaultOptions())
	s := core.New(core.DefaultOptions())
	s.AddFormula(o.Formula)
	if r := s.Solve(); o.Unsat == false && r.Status != core.StatusUnsat {
		t.Fatalf("hole4 after preprocessing: %v", r.Status)
	}
}
