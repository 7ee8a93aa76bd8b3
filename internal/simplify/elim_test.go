package simplify

import (
	"bytes"
	"math/bits"
	"reflect"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/drup"
)

// boundFormula returns a formula over variables 1..12 made of the given
// clauses over variable 1, followed by filler that keeps variables 2..6
// and the padding variables 8..12 out of elimination's reach. Each filler
// clause is one literal over 2..6 and a sign pattern over 8..12, even
// patterns with the positive literal and odd ones with the negative. Each
// of 2..6 then occurs in 32 filler clauses, each padding variable in 160,
// both past maxOccurrences in both polarities, so variable 1 is the only
// elimination candidate. No two filler clauses differ in exactly one
// complemented literal, and none shares two variables with a clause over
// 1..7, so subsumption and strengthening never change the filler either.
func boundFormula(v1 ...[]int) (f *cnf.Formula, filler []cnf.Clause) {
	f = cnf.New(12)
	for _, c := range v1 {
		f.AddClause(c...)
	}
	for x := 2; x <= 6; x++ {
		for pattern := 0; pattern < 32; pattern++ {
			c := []int{x}
			if bits.OnesCount(uint(pattern))%2 == 1 {
				c[0] = -x
			}
			for i := 0; i < 5; i++ {
				p := 8 + i
				if pattern&(1<<i) != 0 {
					p = -p
				}
				c = append(c, p)
			}
			filler = append(filler, cnf.NewClause(c...))
		}
	}
	f.Clauses = append(f.Clauses, filler...)
	return f, filler
}

func clauses(xs ...[]int) []cnf.Clause {
	out := make([]cnf.Clause, len(xs))
	for i, x := range xs {
		out[i] = cnf.NewClause(x...)
	}
	return out
}

func checkOutcome(t *testing.T, got, want *Outcome) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("outcome\n got  %+v\n     clauses %v\n want %+v\n     clauses %v",
			*got, got.Formula.Clauses, *want, want.Formula.Clauses)
	}
}

// At the bound the variable is eliminated: 2 positive × 3 negative
// occurrences give five non-tautological resolvents ((1 2)×(−1 −2) is a
// tautology), and 5 ≤ 2+3.
func TestEliminationAtBound(t *testing.T) {
	v1 := [][]int{{1, 2}, {1, 3}, {-1, -2}, {-1, 4}, {-1, 5}}
	f, filler := boundFormula(v1...)
	want := &Outcome{
		Formula: &cnf.Formula{NumVars: 12, Clauses: append(append([]cnf.Clause(nil), filler...),
			clauses([]int{2, 4}, []int{2, 5}, []int{-2, 3}, []int{3, 4}, []int{3, 5})...)},
		Elims:          []Elim{{V: 1, Clauses: clauses(v1...)}},
		EliminatedVars: 1,
	}
	checkOutcome(t, Simplify(f, Options{}), want)
}

// One resolvent past the bound the variable stays, and so do all of its
// clauses: a fourth negative occurrence makes seven non-tautological
// resolvents against 2+4.
func TestEliminationRejectedByBound(t *testing.T) {
	v1 := [][]int{{1, 2}, {1, 3}, {-1, -2}, {-1, 4}, {-1, 5}, {-1, 6}}
	f, _ := boundFormula(v1...)
	want := &Outcome{Formula: &cnf.Formula{NumVars: 12, Clauses: append([]cnf.Clause(nil), f.Clauses...)}}
	checkOutcome(t, Simplify(f, Options{}), want)
}

// A variable with an occurrence satisfied under a fixed unit is postponed,
// not eliminated, although its resolvent count (4 against 2+2) is within
// the bound. The satisfied clause is dropped only when the formula is
// emitted, and the unit is appended.
func TestEliminationPostponedBySatisfiedOccurrence(t *testing.T) {
	f, filler := boundFormula([]int{7}, []int{1, 3}, []int{1, 7}, []int{-1, 4}, []int{-1, 5})
	kept := append(clauses([]int{1, 3}, []int{-1, 4}, []int{-1, 5}), filler...)
	want := &Outcome{
		Formula:         &cnf.Formula{NumVars: 12, Clauses: append(kept, cnf.NewClause(7))},
		PropagatedUnits: 1,
	}
	checkOutcome(t, Simplify(f, Options{}), want)
}

// Two live clauses that are the units {1} and {¬1} under the fixed
// assignment refute the formula when variable 1 comes up for elimination,
// even though its other resolvents already exceed the bound before that
// pair is reached. Strengthening builds them: (1 2 3)+(1 2 −3) give (1 2)
// and (−1 4 5)+(−1 4 −5) give (−1 4), with 2 and 4 already false, and
// strengthening does not queue a clause that is only unit under the
// assignment. The trace must refute the original formula.
func TestEliminationRefutesEffectiveUnits(t *testing.T) {
	f := cnf.New(13)
	f.AddClause(-2)
	f.AddClause(-4)
	f.AddClause(1, 6, 7)
	f.AddClause(1, 8, 9)
	f.AddClause(-1, 10, 11)
	f.AddClause(-1, 12, 13)
	f.AddClause(1, 2, 3)
	f.AddClause(1, 2, -3)
	f.AddClause(-1, 4, 5)
	f.AddClause(-1, 4, -5)
	var proof bytes.Buffer
	opt := DefaultOptions()
	opt.Proof = &proof
	want := &Outcome{
		Formula:          &cnf.Formula{NumVars: 13, Clauses: []cnf.Clause{{}}},
		Unsat:            true,
		RemovedSubsumed:  2,
		StrengthenedLits: 2,
		PropagatedUnits:  3,
	}
	checkOutcome(t, Simplify(f, opt), want)
	res, err := drup.Check(f, &proof)
	if err != nil || !res.EmptyDerived {
		t.Fatalf("trace does not refute the formula: %v %+v", err, res)
	}
}
