package core

import (
	"testing"

	"berkmin/internal/cnf"
)

// benchLoadedSolver returns a solver loaded with a mid-size mixed formula
// and warmed by a budget-limited solve, so it carries learnt clauses,
// activities and saved phases — the state Reset and Clone operate on.
func benchLoadedSolver(b *testing.B, conflicts uint64) *Solver {
	b.Helper()
	o := DefaultOptions()
	o.MaxConflicts = conflicts
	s := New(o)
	s.AddFormula(pigeonhole(7))
	const n = 1500
	for i := 1; i < n; i++ {
		s.AddClause(cnf.NewClause(-i, i+1))
	}
	if conflicts > 0 {
		s.Solve()
	}
	return s
}

// BenchmarkReset measures dropping the search plane of a loaded solver.
// The first iteration frees the warm-up learnt clauses; every later one
// finds an empty learnt database and refills the watch, occurrence and
// heap storage in place, so the loop reaches 0 allocs/op steady state —
// the reset-path guarantee query streams rely on (benchguard gates it).
func BenchmarkReset(b *testing.B) {
	s := benchLoadedSolver(b, 200)
	s.Reset() // free the warm-up learnts; reach steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
	}
}

// BenchmarkClone measures deriving a solver from a loaded one (formula
// plane + search plane, the binary-clause lists shared copy-on-write): the
// O(formula) cost of fanning one master out to portfolio or cube workers.
func BenchmarkClone(b *testing.B) {
	s := benchLoadedSolver(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := s.Clone()
		if c.nVars != s.nVars {
			b.Fatal("bad clone")
		}
	}
}
