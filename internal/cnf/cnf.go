// Package cnf provides the core propositional-logic data types shared by
// every subsystem of the repository: variables, literals, clauses and CNF
// formulas, together with assignment evaluation.
//
// The encoding is the conventional one used by CDCL solvers: variables are
// positive integers 1..n and a literal packs a variable and a sign into a
// single int32 (2v for the positive literal, 2v+1 for the negated one), so
// literals index arrays directly and negation is a single XOR.
package cnf

import (
	"fmt"
	"slices"
	"strings"
)

// Var is a propositional variable. Valid variables are >= 1.
type Var int32

// Lit is a literal: a variable or its negation, packed as 2v (positive)
// or 2v+1 (negative). The zero Lit is invalid and doubles as "undefined".
type Lit int32

// LitUndef is the invalid/undefined literal.
const LitUndef Lit = 0

// MkLit builds the literal of v, negated if neg is true.
func MkLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v << 1) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v<<1) | 1 }

// FromDimacs converts a signed DIMACS literal (±v) to a Lit.
// FromDimacs(0) returns LitUndef.
func FromDimacs(x int) Lit {
	if x == 0 {
		return LitUndef
	}
	if x < 0 {
		return NegLit(Var(-x))
	}
	return PosLit(Var(x))
}

// Var returns the variable of the literal.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Dimacs returns the literal in signed DIMACS form (±v).
func (l Lit) Dimacs() int {
	v := int(l >> 1)
	if l&1 == 1 {
		return -v
	}
	return v
}

// String renders the literal in DIMACS form.
func (l Lit) String() string {
	if l == LitUndef {
		return "?"
	}
	return fmt.Sprintf("%d", l.Dimacs())
}

// Clause is a disjunction of literals.
type Clause []Lit

// NewClause builds a clause from signed DIMACS literals.
func NewClause(xs ...int) Clause {
	c := make(Clause, len(xs))
	for i, x := range xs {
		c[i] = FromDimacs(x)
	}
	return c
}

// Has reports whether the clause contains the literal.
func (c Clause) Has(l Lit) bool {
	for _, x := range c {
		if x == l {
			return true
		}
	}
	return false
}

// Signature folds the clause's literals into a 64-bit occurrence set:
// c.Signature() &^ d.Signature() != 0 proves c ⊄ d without touching d's
// literals — the standard fast-reject filter for subsumption. Shared by
// the preprocessor (package simplify) and the in-search simplifier
// (package core), so the two subsumption kernels cannot drift apart.
func (c Clause) Signature() uint64 {
	var s uint64
	for _, l := range c {
		s |= 1 << (uint(l) % 64)
	}
	return s
}

// ContainsAll reports whether the clause contains every literal of sub
// (linear scans: clause lengths are small and callers signature-filter
// first).
func (c Clause) ContainsAll(sub []Lit) bool {
	for _, l := range sub {
		if !c.Has(l) {
			return false
		}
	}
	return true
}

// SubsumesExcept reports whether (c \ {l}) ∪ {neg} ⊆ d — the
// self-subsuming-resolution test: when it holds, resolving c and d on l
// yields a strict subset of d, so neg can be deleted from d.
func SubsumesExcept(c, d Clause, l, neg Lit) bool {
	for _, x := range c {
		want := x
		if x == l {
			want = neg
		}
		if !d.Has(want) {
			return false
		}
	}
	return true
}

// MaxVar returns the largest variable mentioned in the clause.
func (c Clause) MaxVar() Var {
	var m Var
	for _, l := range c {
		if v := l.Var(); v > m {
			m = v
		}
	}
	return m
}

// Clone returns a deep copy of the clause.
func (c Clause) Clone() Clause {
	out := make(Clause, len(c))
	copy(out, c)
	return out
}

// Normalize sorts the literals, removes duplicates and reports whether the
// clause is a tautology (contains x and ¬x). The returned clause shares the
// receiver's backing array.
func (c Clause) Normalize() (Clause, bool) {
	if len(c) == 0 {
		return c, false
	}
	slices.Sort(c)
	out := c[:1]
	for _, l := range c[1:] {
		last := out[len(out)-1]
		if l == last {
			continue
		}
		if l == last.Not() {
			return c, true
		}
		out = append(out, l)
	}
	return out, false
}

// String renders the clause as space-separated DIMACS literals.
func (c Clause) String() string {
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = l.String()
	}
	return strings.Join(parts, " ")
}

// Formula is a CNF formula: a conjunction of clauses over variables 1..NumVars.
type Formula struct {
	// NumVars is the number of variables; variables are 1..NumVars.
	NumVars int
	// Clauses is the conjunction. Clauses may be empty (an empty clause
	// makes the formula trivially unsatisfiable).
	Clauses []Clause
	// Comments carries free-form provenance (generator name, parameters,
	// expected status) emitted as DIMACS "c" lines.
	Comments []string
}

// New returns an empty formula over n variables.
func New(n int) *Formula {
	return &Formula{NumVars: n}
}

// AddClause appends a clause built from signed DIMACS literals, growing
// NumVars as needed. It returns the formula for chaining.
func (f *Formula) AddClause(xs ...int) *Formula {
	c := NewClause(xs...)
	return f.Add(c)
}

// Add appends a clause, growing NumVars as needed.
func (f *Formula) Add(c Clause) *Formula {
	if v := int(c.MaxVar()); v > f.NumVars {
		f.NumVars = v
	}
	f.Clauses = append(f.Clauses, c)
	return f
}

// NumClauses returns the number of clauses.
func (f *Formula) NumClauses() int { return len(f.Clauses) }

// MaxVar returns the largest variable mentioned in any clause.
func (f *Formula) MaxVar() Var {
	var m Var
	for _, c := range f.Clauses {
		if v := c.MaxVar(); v > m {
			m = v
		}
	}
	return m
}

// Clone returns a deep copy of the formula.
func (f *Formula) Clone() *Formula {
	out := &Formula{
		NumVars:  f.NumVars,
		Clauses:  make([]Clause, len(f.Clauses)),
		Comments: append([]string(nil), f.Comments...),
	}
	for i, c := range f.Clauses {
		out.Clauses[i] = c.Clone()
	}
	return out
}

// Stats returns simple size statistics: number of variables, clauses, and
// total literal count.
func (f *Formula) Stats() (vars, clauses, lits int) {
	for _, c := range f.Clauses {
		lits += len(c)
	}
	return f.NumVars, len(f.Clauses), lits
}

// String renders a compact human-readable form (not DIMACS; see package
// dimacs for serialization).
func (f *Formula) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cnf(vars=%d, clauses=%d)", f.NumVars, len(f.Clauses))
	return b.String()
}
