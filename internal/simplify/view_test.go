package simplify

import (
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/core"
)

// TestViewIndependentRestores pins the sharing contract: two views of one
// outcome restore different eliminations without affecting each other or
// the shared outcome, and each view's Extend honors only its own flags.
func TestViewIndependentRestores(t *testing.T) {
	// x1 pure positive, x4 pure negative: both eliminated, independently
	// restorable; x2 resolved away by elimination.
	f := cnf.New(4)
	f.AddClause(1, 2)
	f.AddClause(-2, 3)
	f.AddClause(3, -4)
	o := Simplify(f, DefaultOptions())
	if o.Unsat || len(o.Elims) < 2 {
		t.Fatalf("want >= 2 eliminations, got %d (unsat=%v)", len(o.Elims), o.Unsat)
	}

	a, b := o.NewView(), o.NewView()
	x := o.Elims[0].V
	got := a.Restore(x)
	if len(got) == 0 {
		t.Fatal("view restore returned no clauses")
	}
	if a.Restore(x) != nil {
		t.Fatal("second restore of the same elimination returned clauses again")
	}
	if a.Restore(cnf.Var(f.NumVars+1)) != nil {
		t.Fatal("restore of a never-eliminated variable returned clauses")
	}
	// The shared outcome keeps the record: b and future views still see it.
	if len(o.Elims[0].Clauses) == 0 {
		t.Fatal("view restore surrendered the shared clause record")
	}
	if got2 := b.Restore(x); len(got2) != len(got) {
		t.Fatalf("sibling view got %d clauses, first view %d", len(got2), len(got))
	}

	// Extend per view: a restored variable keeps the model's value in that
	// view, is synthesized in a fresh one.
	fresh := o.NewView()
	restoredAll := o.NewView()
	for _, e := range o.Elims {
		restoredAll.Restore(e.V)
	}
	base := make([]bool, f.NumVars+1)
	if m := fresh.Extend(base); !cnf.Assignment(m).Satisfies(f) {
		t.Fatal("fresh view failed to reconstruct a model")
	}
	// With everything restored the view must leave the model untouched.
	m := restoredAll.Extend(base)
	for v := 1; v <= f.NumVars; v++ {
		if m[v] != base[v] {
			t.Fatalf("fully restored view synthesized a value for x%d", v)
		}
	}
}

// TestViewCloneAndConcurrentExtend checks the solver-clone companion path:
// cloned views carry the restored flags forward, and many views may Extend
// the same outcome concurrently (run under -race).
func TestViewCloneAndConcurrentExtend(t *testing.T) {
	f := cnf.New(4)
	f.AddClause(1, 2)
	f.AddClause(-2, 3)
	f.AddClause(3, -4)
	o := Simplify(f, DefaultOptions())
	if o.Unsat || len(o.Elims) == 0 {
		t.Fatalf("want eliminations, got %d (unsat=%v)", len(o.Elims), o.Unsat)
	}

	v := o.NewView()
	v.Restore(o.Elims[0].V)
	c := v.Clone()
	if c.Restore(o.Elims[0].V) != nil {
		t.Fatal("clone forgot the parent view's restore")
	}
	if len(o.Elims) > 1 && c.Restore(o.Elims[1].V) == nil {
		t.Fatal("clone could not restore an elimination its parent had not")
	}

	// Solve the simplified formula once, then extend concurrently.
	s := core.New(core.DefaultOptions())
	s.AddFormula(o.Formula)
	r := s.Solve()
	if r.Status != core.StatusSat {
		t.Fatalf("simplified: %v", r.Status)
	}
	done := make(chan bool, 8)
	for i := 0; i < 8; i++ {
		go func() {
			m := o.NewView().Extend(r.Model)
			done <- cnf.Assignment(m).Satisfies(f)
		}()
	}
	for i := 0; i < 8; i++ {
		if !<-done {
			t.Fatal("concurrent view Extend produced a bad model")
		}
	}
}
