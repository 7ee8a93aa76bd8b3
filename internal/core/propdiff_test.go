package core

import (
	"math/rand"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/gen"
)

// Differential property test for the two-tier propagator: the engine's
// binary-tier + watched-literal BCP is compared, decision by decision,
// against a naive reference propagator that re-scans every clause of the
// formula until a fixed point. Unit propagation is confluent, so after
// each decision both must agree on the exact assignment set, and both must
// agree on whether the state is conflicting (the engines may differ in
// *which* falsified clause they report, never in whether one exists).

// refPropagate extends assign (0 undef, +1 true, -1 false; index = var) to
// the unit-propagation fixed point of f. It returns false if some clause
// is falsified.
func refPropagate(f *cnf.Formula, assign []int8) bool {
	val := func(l cnf.Lit) int8 {
		v := assign[l.Var()]
		if l.Neg() {
			return -v
		}
		return v
	}
	for changed := true; changed; {
		changed = false
		for _, c := range f.Clauses {
			unit := cnf.LitUndef
			multi, sat := false, false
			for _, l := range c {
				switch val(l) {
				case 1:
					sat = true
				case 0:
					// Duplicate copies of one literal are a single
					// unassigned slot (the engine normalizes them away).
					if unit == cnf.LitUndef || unit == l {
						unit = l
					} else {
						multi = true
					}
				}
				if sat {
					break
				}
			}
			if sat || multi {
				continue
			}
			if unit == cnf.LitUndef {
				return false // falsified clause
			}
			if unit.Neg() {
				assign[unit.Var()] = -1
			} else {
				assign[unit.Var()] = 1
			}
			changed = true
		}
	}
	return true
}

// diffPropagate drives the engine and the reference through the same
// decision sequence and cross-checks assignments and conflict status after
// every step. It stops at the first conflict (both sides must see it).
func diffPropagate(t *testing.T, f *cnf.Formula, decisions []cnf.Lit) {
	t.Helper()
	s := New(DefaultOptions())
	s.AddFormula(f)
	assign := make([]int8, f.NumVars+1)
	refOK := refPropagate(f, assign)
	if s.ok != refOK {
		t.Fatalf("after loading: engine ok=%v, reference ok=%v", s.ok, refOK)
	}
	check := func(step int) {
		t.Helper()
		for v := 1; v <= f.NumVars; v++ {
			var want lbool
			switch assign[v] {
			case 1:
				want = lTrue
			case -1:
				want = lFalse
			}
			if got := s.vals[cnf.PosLit(cnf.Var(v))]; got != want {
				t.Fatalf("step %d: x%d engine=%d reference=%d", step, v, got, assign[v])
			}
		}
	}
	if !refOK {
		return
	}
	check(0)
	for i, d := range decisions {
		switch s.value(d) {
		case lTrue:
			continue // already implied; the reference agrees (checked above)
		case lFalse:
			continue // the prefix falsifies d on both sides; skip the non-step
		}
		s.newDecisionLevel()
		s.enqueue(d, refUndef)
		confl := s.propagate()
		if d.Neg() {
			assign[d.Var()] = -1
		} else {
			assign[d.Var()] = 1
		}
		refOK = refPropagate(f, assign)
		if (confl != refUndef) != !refOK {
			t.Fatalf("step %d (decide %v): engine conflict=%v, reference conflict=%v",
				i+1, d, confl != refUndef, !refOK)
		}
		if confl != refUndef {
			// The reported clause must be genuinely falsified.
			for _, l := range s.ca.lits(confl) {
				if s.value(l) != lFalse {
					t.Fatalf("step %d: conflict clause literal %v not false", i+1, l)
				}
			}
			return
		}
		check(i + 1)
	}
}

// randomDecisions draws a shuffled polarity-randomized decision order over
// all variables.
func randomDecisions(rng *rand.Rand, n int) []cnf.Lit {
	out := make([]cnf.Lit, n)
	for i, v := range rng.Perm(n) {
		out[i] = cnf.MkLit(cnf.Var(v+1), rng.Intn(2) == 0)
	}
	return out
}

// TestPropagateDifferentialRandom runs the lockstep comparison on random
// formulas across clause widths — pure 2-SAT (binary tier only), pure
// 3-SAT (long tier only) and mixed width (both tiers interleaving).
func TestPropagateDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1902))
	for iter := 0; iter < 150; iter++ {
		n := 5 + rng.Intn(12)
		f := cnf.New(n)
		m := 3 * n
		for i := 0; i < m; i++ {
			k := 2 + rng.Intn(1+iter%3) // width 2, 2-3 or 2-4 by round
			var c cnf.Clause
			for j := 0; j < k; j++ {
				c = append(c, cnf.MkLit(cnf.Var(rng.Intn(n)+1), rng.Intn(2) == 0))
			}
			f.Add(c)
		}
		diffPropagate(t, f, randomDecisions(rng, n))
	}
}

// TestPropagateDifferentialGenSuite runs the same comparison on structured
// instances from the paper's regenerated benchmark classes, whose
// implication chains exercise the binary tier far more than random CNF.
func TestPropagateDifferentialGenSuite(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	instances := []gen.Instance{
		gen.Pigeonhole(4),
		gen.Pigeonhole(6),
		gen.Parity(12, 10, 3),
		gen.Parity(16, 16, 9),
	}
	for _, inst := range instances {
		f := inst.Formula
		for round := 0; round < 6; round++ {
			diffPropagate(t, f, randomDecisions(rng, f.NumVars))
		}
	}
}

// FuzzPropagateDifferential feeds arbitrary byte strings through the
// lockstep comparison: bytes with the high bit clear build the formula
// (low 4 bits variable 1..8, bit 4 sign, bits 5-6 end-clause markers, as
// in FuzzSolveAgainstDPLL), bytes with the high bit set are decisions.
func FuzzPropagateDifferential(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x40, 0x23, 0x05, 0x60, 0x81, 0x92})
	f.Add([]byte{0x01, 0x40, 0x11, 0x40, 0x85})
	f.Add([]byte{0x21, 0x83, 0x86, 0x89})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			data = data[:96]
		}
		formula := cnf.New(8)
		var cur cnf.Clause
		var decisions []cnf.Lit
		for _, b := range data {
			v := cnf.Var(int(b&0x0F)%8 + 1)
			l := cnf.MkLit(v, b&0x10 != 0)
			if b&0x80 != 0 {
				decisions = append(decisions, l)
				continue
			}
			cur = append(cur, l)
			if b&0x60 != 0 {
				formula.Add(cur)
				cur = nil
			}
		}
		if len(cur) > 0 {
			formula.Add(cur)
		}
		if len(formula.Clauses) == 0 {
			return
		}
		diffPropagate(t, formula, decisions)
	})
}
