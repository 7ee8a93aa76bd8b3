package cnf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLitEncoding(t *testing.T) {
	for v := Var(1); v <= 100; v++ {
		p, n := PosLit(v), NegLit(v)
		if p.Var() != v || n.Var() != v {
			t.Fatalf("var round-trip failed for %d", v)
		}
		if p.Neg() || !n.Neg() {
			t.Fatalf("sign wrong for %d", v)
		}
		if p.Not() != n || n.Not() != p {
			t.Fatalf("negation wrong for %d", v)
		}
		if p.Dimacs() != int(v) || n.Dimacs() != -int(v) {
			t.Fatalf("dimacs wrong for %d", v)
		}
	}
}

func TestMkLit(t *testing.T) {
	if MkLit(5, false) != PosLit(5) {
		t.Fatal("MkLit positive")
	}
	if MkLit(5, true) != NegLit(5) {
		t.Fatal("MkLit negative")
	}
}

func TestFromDimacs(t *testing.T) {
	cases := []struct {
		in   int
		want Lit
	}{
		{0, LitUndef},
		{1, PosLit(1)},
		{-1, NegLit(1)},
		{7, PosLit(7)},
		{-42, NegLit(42)},
	}
	for _, c := range cases {
		if got := FromDimacs(c.in); got != c.want {
			t.Errorf("FromDimacs(%d) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFromDimacsRoundTripQuick(t *testing.T) {
	f := func(x int16) bool {
		if x == 0 {
			return FromDimacs(0) == LitUndef
		}
		return FromDimacs(int(x)).Dimacs() == int(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLitString(t *testing.T) {
	if PosLit(3).String() != "3" || NegLit(3).String() != "-3" {
		t.Fatal("literal string form")
	}
	if LitUndef.String() != "?" {
		t.Fatal("undef string form")
	}
}

func TestClauseBasics(t *testing.T) {
	c := NewClause(1, -2, 3)
	if len(c) != 3 {
		t.Fatalf("len = %d", len(c))
	}
	if !c.Has(PosLit(1)) || !c.Has(NegLit(2)) || c.Has(NegLit(1)) {
		t.Fatal("Has is wrong")
	}
	if c.MaxVar() != 3 {
		t.Fatalf("MaxVar = %d", c.MaxVar())
	}
	if c.String() != "1 -2 3" {
		t.Fatalf("String = %q", c.String())
	}
	d := c.Clone()
	d[0] = NegLit(9)
	if c[0] != PosLit(1) {
		t.Fatal("Clone aliases the original")
	}
}

func TestClauseNormalize(t *testing.T) {
	c, taut := NewClause(3, 1, 3, -2, 1).Normalize()
	if taut {
		t.Fatal("not a tautology")
	}
	if len(c) != 3 {
		t.Fatalf("dedup failed: %v", c)
	}
	_, taut = NewClause(1, -2, -1).Normalize()
	if !taut {
		t.Fatal("tautology not detected")
	}
	empty, taut := Clause{}.Normalize()
	if taut || len(empty) != 0 {
		t.Fatal("empty clause normalize")
	}
}

func TestNormalizeQuick(t *testing.T) {
	// Property: after Normalize, no duplicates; tautology flag is correct.
	f := func(raw []int8) bool {
		c := make(Clause, 0, len(raw))
		for _, x := range raw {
			if x == 0 {
				continue
			}
			c = append(c, FromDimacs(int(x)))
		}
		orig := c.Clone()
		norm, taut := c.Normalize()
		wantTaut := false
		for i := range orig {
			for j := range orig {
				if orig[i] == orig[j].Not() {
					wantTaut = true
				}
			}
		}
		if taut != wantTaut {
			return false
		}
		if taut {
			return true
		}
		for i := 1; i < len(norm); i++ {
			if norm[i] <= norm[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFormulaAdd(t *testing.T) {
	f := New(2)
	f.AddClause(1, -2)
	f.AddClause(3) // grows NumVars
	if f.NumVars != 3 {
		t.Fatalf("NumVars = %d", f.NumVars)
	}
	if f.NumClauses() != 2 {
		t.Fatalf("NumClauses = %d", f.NumClauses())
	}
	if f.MaxVar() != 3 {
		t.Fatalf("MaxVar = %d", f.MaxVar())
	}
	vars, clauses, lits := f.Stats()
	if vars != 3 || clauses != 2 || lits != 3 {
		t.Fatalf("Stats = %d %d %d", vars, clauses, lits)
	}
}

func TestFormulaClone(t *testing.T) {
	f := New(2)
	f.AddClause(1, 2)
	f.Comments = append(f.Comments, "hello")
	g := f.Clone()
	g.Clauses[0][0] = NegLit(1)
	g.Comments[0] = "bye"
	if f.Clauses[0][0] != PosLit(1) || f.Comments[0] != "hello" {
		t.Fatal("Clone aliases the original")
	}
}

func TestAssignmentEval(t *testing.T) {
	f := New(3)
	f.AddClause(1, 2)
	f.AddClause(-1, 3)
	a := Assignment{false, true, false, true} // x1=1, x2=0, x3=1
	if !a.Satisfies(f) {
		t.Fatal("assignment should satisfy")
	}
	b := Assignment{false, true, false, false} // x1=1, x2=0, x3=0
	if b.Satisfies(f) {
		t.Fatal("assignment should not satisfy")
	}
}

func TestAssignmentValue(t *testing.T) {
	a := Assignment{false, true, false}
	if !a.Value(PosLit(1)) || a.Value(NegLit(1)) {
		t.Fatal("value of var 1")
	}
	if a.Value(PosLit(2)) || !a.Value(NegLit(2)) {
		t.Fatal("value of var 2")
	}
}

func TestBuilderGadgets(t *testing.T) {
	b := NewBuilder()
	vs := b.FreshN(4)
	if b.NumVars() != 4 {
		t.Fatalf("NumVars = %d", b.NumVars())
	}
	b.ExactlyOne(PosLit(vs[0]), PosLit(vs[1]), PosLit(vs[2]), PosLit(vs[3]))
	f := b.Formula()
	// exactly-one over 4 literals: 1 ALO clause + C(4,2)=6 AMO clauses.
	if f.NumClauses() != 7 {
		t.Fatalf("clauses = %d", f.NumClauses())
	}
	// Exhaustively check the encoding's models have exactly one true var.
	for m := 0; m < 16; m++ {
		a := make(Assignment, 5)
		pop := 0
		for i := 0; i < 4; i++ {
			if m&(1<<i) != 0 {
				a[i+1] = true
				pop++
			}
		}
		if a.Satisfies(f) != (pop == 1) {
			t.Fatalf("exactly-one wrong at mask %b", m)
		}
	}
}

func TestBuilderImplications(t *testing.T) {
	b := NewBuilder()
	x, y, z := b.Fresh(), b.Fresh(), b.Fresh()
	b.Implies(PosLit(x), PosLit(y))
	b.Iff(PosLit(y), PosLit(z))
	b.Clause(NegLit(z), PosLit(x), PosLit(y)) // z → (x ∨ y)
	f := b.Formula()
	if f.NumClauses() != 4 {
		t.Fatalf("clauses = %d", f.NumClauses())
	}
	// x=1,y=0 must falsify the implication.
	a := Assignment{false, true, false, false}
	if a.Satisfies(f) {
		t.Fatal("x→y violated but satisfied")
	}
}

func TestBuilderReserve(t *testing.T) {
	b := NewBuilder()
	b.Reserve(10)
	if v := b.Fresh(); v != 11 {
		t.Fatalf("Fresh after Reserve = %d", v)
	}
	if b.NumVars() != 11 {
		t.Fatalf("NumVars = %d", b.NumVars())
	}
}

func TestBuilderComment(t *testing.T) {
	b := NewBuilder()
	b.Comment("family=%s n=%d", "hole", 6)
	f := b.Formula()
	if len(f.Comments) != 1 || f.Comments[0] != "family=hole n=6" {
		t.Fatalf("comments = %v", f.Comments)
	}
}

func TestAtMostOneRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 50; iter++ {
		n := 2 + rng.Intn(5)
		b := NewBuilder()
		vs := b.FreshN(n)
		ls := make([]Lit, n)
		for i, v := range vs {
			ls[i] = MkLit(v, rng.Intn(2) == 0)
		}
		b.AtMostOne(ls...)
		f := b.Formula()
		for m := 0; m < 1<<n; m++ {
			a := make(Assignment, n+1)
			for i := 0; i < n; i++ {
				a[i+1] = m&(1<<i) != 0
			}
			cnt := 0
			for _, l := range ls {
				if a.Value(l) {
					cnt++
				}
			}
			if a.Satisfies(f) != (cnt <= 1) {
				t.Fatalf("AMO wrong: n=%d mask=%b cnt=%d", n, m, cnt)
			}
		}
	}
}
