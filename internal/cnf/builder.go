package cnf

import "fmt"

// Builder incrementally constructs formulas with fresh-variable allocation
// and common encoding gadgets (at-most-one, exactly-one, implications).
// All generator packages build their CNFs through it.
type Builder struct {
	f    *Formula
	next Var
}

// NewBuilder returns a Builder with no variables allocated yet.
func NewBuilder() *Builder {
	return &Builder{f: New(0), next: 1}
}

// Fresh allocates and returns a fresh variable.
func (b *Builder) Fresh() Var {
	v := b.next
	b.next++
	if int(v) > b.f.NumVars {
		b.f.NumVars = int(v)
	}
	return v
}

// FreshN allocates n fresh variables and returns them.
func (b *Builder) FreshN(n int) []Var {
	vs := make([]Var, n)
	for i := range vs {
		vs[i] = b.Fresh()
	}
	return vs
}

// Reserve ensures variables 1..n are allocated.
func (b *Builder) Reserve(n int) {
	if Var(n+1) > b.next {
		b.next = Var(n + 1)
	}
	if n > b.f.NumVars {
		b.f.NumVars = n
	}
}

// NumVars returns the number of variables allocated so far.
func (b *Builder) NumVars() int { return b.f.NumVars }

// Comment records a provenance comment on the formula.
func (b *Builder) Comment(format string, args ...any) {
	b.f.Comments = append(b.f.Comments, fmt.Sprintf(format, args...))
}

// Clause adds a clause of literals.
func (b *Builder) Clause(ls ...Lit) {
	c := make(Clause, len(ls))
	copy(c, ls)
	b.f.Add(c)
}

// Unit adds a unit clause.
func (b *Builder) Unit(l Lit) { b.Clause(l) }

// Implies adds the clause ¬a ∨ b (a → b).
func (b *Builder) Implies(a, c Lit) { b.Clause(a.Not(), c) }

// Iff adds a ↔ b (two binary clauses).
func (b *Builder) Iff(a, c Lit) {
	b.Implies(a, c)
	b.Implies(c, a)
}

// AtMostOne adds pairwise at-most-one constraints over the literals.
// Pairwise encoding is quadratic but matches the planning encodings of the
// SATPLAN era the paper's benchmarks come from.
func (b *Builder) AtMostOne(ls ...Lit) {
	for i := 0; i < len(ls); i++ {
		for j := i + 1; j < len(ls); j++ {
			b.Clause(ls[i].Not(), ls[j].Not())
		}
	}
}

// ExactlyOne adds a clause requiring at least one literal plus pairwise
// at-most-one constraints.
func (b *Builder) ExactlyOne(ls ...Lit) {
	clause := make(Clause, len(ls))
	copy(clause, ls)
	b.f.Add(clause)
	b.AtMostOne(ls...)
}

// AtMostOneLadder adds the sequential (Sinz ladder) at-most-one encoding:
// n-1 auxiliary register variables and O(n) clauses instead of the
// quadratic pairwise encoding. Register r_i means "some literal with index
// <= i is true".
func (b *Builder) AtMostOneLadder(ls ...Lit) {
	n := len(ls)
	if n <= 4 {
		b.AtMostOne(ls...)
		return
	}
	r := b.FreshN(n - 1)
	b.Implies(ls[0], PosLit(r[0]))
	for i := 1; i < n-1; i++ {
		b.Implies(ls[i], PosLit(r[i]))
		b.Implies(PosLit(r[i-1]), PosLit(r[i]))
		b.Clause(ls[i].Not(), NegLit(r[i-1]))
	}
	b.Clause(ls[n-1].Not(), NegLit(r[n-2]))
}

// ExactlyOneLadder combines an at-least-one clause with the ladder
// at-most-one encoding.
func (b *Builder) ExactlyOneLadder(ls ...Lit) {
	clause := make(Clause, len(ls))
	copy(clause, ls)
	b.f.Add(clause)
	b.AtMostOneLadder(ls...)
}

// Formula returns the built formula. The Builder must not be used after.
func (b *Builder) Formula() *Formula { return b.f }

// Building returns the formula under construction without finalizing it:
// the Builder stays usable, and the caller must treat the result as
// read-only. Streaming consumers remember len(Clauses) between looks to
// take just the increment (see circuit.Unroller).
func (b *Builder) Building() *Formula { return b.f }
