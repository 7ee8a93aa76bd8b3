package simplify

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"berkmin/internal/cnf"
	"berkmin/internal/core"
	"berkmin/internal/dpll"
	"berkmin/internal/drup"
)

// TestProofPreprocessingAloneRefutes: when preprocessing derives UNSAT by
// itself, its trace must be a complete DRUP refutation of the original.
func TestProofPreprocessingAloneRefutes(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(1)
	f.AddClause(-1, 2)
	f.AddClause(-2, -1)
	var proof bytes.Buffer
	opt := DefaultOptions()
	opt.Proof = &proof
	o := Simplify(f, opt)
	if !o.Unsat {
		t.Fatalf("expected UNSAT from preprocessing alone; formula %v", o.Formula.Clauses)
	}
	res, err := drup.Check(f, &proof)
	if err != nil {
		t.Fatalf("proof rejected: %v", err)
	}
	if !res.EmptyDerived {
		t.Fatal("empty clause not derived")
	}
}

// TestProofPreprocessThenSolve pipes preprocessing and the CDCL engine
// into ONE trace: the simplifier's additions/deletions followed by the
// solver's learnt clauses must verify against the ORIGINAL formula.
func TestProofPreprocessThenSolve(t *testing.T) {
	// Pigeonhole with an extra chain of implications so unit propagation,
	// strengthening and elimination all fire before search.
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
	f := b.Formula()

	var proof bytes.Buffer
	opt := DefaultOptions()
	opt.Proof = &proof
	o := Simplify(f, opt)
	if !o.Unsat {
		s := core.New(core.DefaultOptions())
		s.SetProofWriter(&proof)
		s.AddFormula(o.Formula)
		if r := s.Solve(); r.Status != core.StatusUnsat {
			t.Fatalf("status = %v, want UNSAT", r.Status)
		}
	}
	res, err := drup.Check(f, &proof)
	if err != nil {
		t.Fatalf("combined proof rejected: %v", err)
	}
	if !res.EmptyDerived {
		t.Fatal("empty clause not derived")
	}
	if res.UnknownDeletions != 0 {
		t.Fatalf("%d deletion lines did not match a live clause", res.UnknownDeletions)
	}
}

// TestProofRandomUnsat fuzzes the combined preprocess+solve trace over
// random formulas: every UNSAT verdict must come with a verifying DRUP
// proof, and SAT verdicts must reconstruct to a model of the original.
func TestProofRandomUnsat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for iter := 0; iter < 250; iter++ {
		n := 3 + rng.Intn(7)
		m := 4 + rng.Intn(6*n)
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

		var proof bytes.Buffer
		o := Simplify(f, Options{Proof: &proof})
		var status core.Status
		var model []bool
		if o.Unsat {
			status = core.StatusUnsat
		} else {
			s := core.New(core.DefaultOptions())
			s.SetProofWriter(&proof)
			s.AddFormula(o.Formula)
			r := s.Solve()
			status, model = r.Status, r.Model
		}
		if (status == core.StatusSat) != want {
			t.Fatalf("iter %d: verdict %v, oracle sat=%v\n%v", iter, status, want, f.Clauses)
		}
		if status == core.StatusSat {
			if !cnf.Assignment(o.Extend(model)).Satisfies(f) {
				t.Fatalf("iter %d: reconstruction failed\n%v", iter, f.Clauses)
			}
			continue
		}
		res, err := drup.Check(f, &proof)
		if err != nil {
			t.Fatalf("iter %d: proof rejected: %v\nformula: %v\nproof:\n%s",
				iter, err, f.Clauses, proof.String())
		}
		if !res.EmptyDerived {
			t.Fatalf("iter %d: empty clause not derived", iter)
		}
		if res.UnknownDeletions != 0 {
			t.Fatalf("iter %d: %d unknown deletions\nformula: %v\nproof:\n%s",
				iter, res.UnknownDeletions, f.Clauses, proof.String())
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no UNSAT instance was generated; the proof fuzz is vacuous")
	}
}

// TestBudgetStopsSimplification: a budget or stop hook that fires part
// way through must cut simplification short, leaving an equisatisfiable
// (merely less simplified) outcome.
func TestBudgetStopsSimplification(t *testing.T) {
	// Random 3-SAT with a planted solution (variable v is true iff v is
	// even), so the formula is guaranteed satisfiable.
	f := cnf.New(0)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		var c cnf.Clause
		for k := 0; k < 3; k++ {
			v := cnf.Var(1 + rng.Intn(200))
			neg := rng.Intn(2) == 0
			if k == 2 {
				neg = v%2 != 0 // satisfied by the planted assignment
			}
			c = append(c, cnf.MkLit(v, neg))
		}
		f.Add(c)
	}
	// The hook is read on the first poll, while loading, and then every
	// 2048th: firing on its second read stops the first subsumption pass
	// a few dozen clauses in.
	reads := 0
	secondRead := func() bool { reads++; return reads >= 2 }
	for _, run := range []func() *Outcome{
		func() *Outcome { o, _, _ := Run(f, DefaultOptions(), time.Nanosecond, nil); return o },
		func() *Outcome { o, _, _ := Run(f, DefaultOptions(), 0, secondRead); return o },
	} {
		o := run()
		if o.Unsat {
			t.Fatal("budget-stopped preprocessing refuted a formula it barely touched")
		}
		s := core.New(core.DefaultOptions())
		s.AddFormula(o.Formula)
		r := s.Solve()
		if r.Status != core.StatusSat {
			t.Fatalf("status = %v", r.Status)
		}
		if !cnf.Assignment(o.Extend(r.Model)).Satisfies(f) {
			t.Fatal("budget-stopped outcome broke model reconstruction")
		}
	}
	if reads != 2 {
		t.Fatalf("stop hook read %d times, want 2", reads)
	}
}

// TestRunStoppedFromStart: a Run whose stop hook fires from the start
// leaves the input untouched — no subsumption, strengthening or
// elimination, and nothing in the trace — and that outcome is still
// equisatisfiable, extends models, and leads a core proof that verifies.
// The formulas have subsumable and strengthenable clauses, which an
// unbounded run simplifies. Run also returns the remaining budget clamped
// to at least 1ms, and an unlimited budget of 0 as it is.
func TestRunStoppedFromStart(t *testing.T) {
	sat := cnf.New(4)
	sat.AddClause(1, 2)
	sat.AddClause(1, 2, 3)  // subsumed by (1 2)
	sat.AddClause(-1, 2, 4) // strengthened to (2 4) by (1 2)
	sat.AddClause(-2, -4)
	unsat := cnf.New(3)
	for _, c := range [][]int{{1, 2}, {1, -2}, {-1, 2}, {-1, -2}, {1, 2, 3}, {-1, -2, -3}} {
		unsat.AddClause(c...)
	}
	stopped := func() bool { return true }
	for _, f := range []*cnf.Formula{sat, unsat} {
		if o := Simplify(f, DefaultOptions()); o.RemovedSubsumed+o.StrengthenedLits == 0 {
			t.Fatalf("unbounded run left %v as it was; the stopped run proves nothing", f.Clauses)
		}
		var proof bytes.Buffer
		opt := DefaultOptions()
		opt.Proof = &proof
		o, elapsed, remaining := Run(f, opt, time.Second, stopped)
		if !reflect.DeepEqual(o, &Outcome{Formula: f}) || proof.Len() != 0 {
			t.Fatalf("stopped run simplified: %+v, clauses %v, trace %q", o, o.Formula.Clauses, proof.String())
		}
		if elapsed < 0 || remaining < time.Millisecond || remaining > time.Second {
			t.Fatalf("elapsed=%v remaining=%v", elapsed, remaining)
		}
		want := dpll.Solve(f).Sat
		s := core.New(core.DefaultOptions())
		s.SetProofWriter(&proof)
		s.AddFormula(o.Formula)
		r := s.Solve()
		if (r.Status == core.StatusSat) != want {
			t.Fatalf("%v: solves to %v, dpll sat=%v", f.Clauses, r.Status, want)
		}
		if want {
			if !cnf.Assignment(o.Extend(r.Model)).Satisfies(f) {
				t.Fatalf("%v: model does not extend", f.Clauses)
			}
			continue
		}
		if res, err := drup.Check(f, &proof); err != nil || !res.EmptyDerived {
			t.Fatalf("%v: trace does not refute the formula: %v %+v", f.Clauses, err, res)
		}
	}
	if _, _, rem := Run(sat, DefaultOptions(), 0, nil); rem != 0 {
		t.Fatalf("unlimited budget rewritten to %v", rem)
	}
}
