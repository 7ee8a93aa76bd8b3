package cnf

// Assignment is a total or partial truth assignment. Index i holds the value
// of variable i (index 0 is unused). Use the three-valued form via Value.
type Assignment []bool

// Value of a literal under a total assignment.
func (a Assignment) Value(l Lit) bool {
	v := a[l.Var()]
	if l.Neg() {
		return !v
	}
	return v
}

// SatisfiesClause reports whether the total assignment satisfies the clause.
func (a Assignment) SatisfiesClause(c Clause) bool {
	for _, l := range c {
		if a.Value(l) {
			return true
		}
	}
	return false
}

// Satisfies reports whether the total assignment satisfies the formula.
func (a Assignment) Satisfies(f *Formula) bool {
	for _, c := range f.Clauses {
		if !a.SatisfiesClause(c) {
			return false
		}
	}
	return true
}
