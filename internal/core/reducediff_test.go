package core

import (
	"bytes"
	"math/rand"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/drup"
	"berkmin/internal/gen"
)

// Differential property test for the clause-database managers: the
// BerkMin-style §8 database and the glue-aware tiered database run the
// same formulas to completion under churn-heavy schedules. Database
// management must never change answers — both verdicts must agree — and
// since deletion bugs classically manifest as "miracle UNSAT" proofs,
// both engines log DRUP traces that are verified against the original
// CNF. SAT answers are checked against the formula directly.

// berkMinChurnOptions mirrors churnOptions for the paper's database:
// restarts (and §8 cleanings) every few conflicts.
func berkMinChurnOptions() Options {
	o := DefaultOptions()
	o.RestartFirst = 8
	o.RestartJitter = 4
	return o
}

// runDiffSide solves f on the fresh solver s with a DRUP trace attached
// and the solver-wide invariants checked afterwards.
func runDiffSide(t *testing.T, f *cnf.Formula, s *Solver) (Status, *bytes.Buffer, []bool) {
	t.Helper()
	var proof bytes.Buffer
	s.SetProofWriter(&proof)
	s.AddFormula(f)
	r := s.Solve()
	checkInvariants(t, s)
	return r.Status, &proof, r.Model
}

// diffReduce runs both database managers on f and cross-checks verdicts,
// models and proofs. Both configurations are unlimited, so UNKNOWN is
// impossible on the instrument sizes used here.
func diffReduce(t *testing.T, f *cnf.Formula) {
	t.Helper()
	stA, proofA, modelA := runDiffSide(t, f, New(berkMinChurnOptions()))
	stB, proofB, modelB := runDiffSide(t, f, newChurnSolver(churnOptions()))
	if stA != stB {
		t.Fatalf("verdicts disagree: berkmin-db=%v tiered=%v", stA, stB)
	}
	switch stA {
	case StatusSat:
		if !cnf.Assignment(modelA).Satisfies(f) {
			t.Fatal("berkmin-db model does not satisfy the formula")
		}
		if !cnf.Assignment(modelB).Satisfies(f) {
			t.Fatal("tiered model does not satisfy the formula")
		}
	case StatusUnsat:
		for side, proof := range map[string]*bytes.Buffer{"berkmin-db": proofA, "tiered": proofB} {
			res, err := drup.Check(f, bytes.NewReader(proof.Bytes()))
			if err != nil {
				t.Fatalf("%s proof: %v", side, err)
			}
			if !res.EmptyDerived {
				t.Fatalf("%s proof never derives the empty clause", side)
			}
		}
	default:
		t.Fatal("unlimited run returned UNKNOWN")
	}
}

// TestReduceDifferentialGenSuite runs the lockstep comparison over the
// regenerated benchmark classes: structured UNSAT instances whose database
// churn exercises every tier transition, plus parity/graph instances.
func TestReduceDifferentialGenSuite(t *testing.T) {
	instances := []gen.Instance{
		gen.Pigeonhole(4),
		gen.Pigeonhole(5),
		gen.Pigeonhole(6),
		gen.Parity(12, 10, 3),
		gen.Parity(16, 16, 9),
	}
	for _, inst := range instances {
		diffReduce(t, inst.Formula)
	}
}

// TestReduceDifferentialRandom3SAT sweeps random 3-SAT across the phase
// transition (ratios ~3.5 to ~5.2), so both SAT and UNSAT verdicts (and
// both proof/model check paths) are exercised.
func TestReduceDifferentialRandom3SAT(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 12; iter++ {
		n := 16 + rng.Intn(10)
		m := int(float64(n) * (3.5 + 1.7*float64(iter)/11))
		f := cnf.New(n)
		for j := 0; j < m; j++ {
			var c cnf.Clause
			for k := 0; k < 3; k++ {
				c = append(c, cnf.MkLit(cnf.Var(rng.Intn(n)+1), rng.Intn(2) == 0))
			}
			f.Add(c)
		}
		diffReduce(t, f)
	}
}

// FuzzReduceDifferential feeds arbitrary byte strings through the
// database-manager comparison: bytes build a formula over 8 variables (low
// 4 bits variable, bit 4 sign, bits 5-6 end-clause markers — the
// FuzzSolveAgainstDPLL encoding). Both engines solve it to completion with
// proofs; verdicts must agree and both proofs must verify.
func FuzzReduceDifferential(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x40, 0x23, 0x05, 0x60, 0x11, 0x22})
	f.Add([]byte{0x21, 0x33, 0x46, 0x29, 0x01, 0x40, 0x15, 0x60})
	f.Add([]byte{0x01, 0x40, 0x11, 0x40, 0x05, 0x60})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			data = data[:96]
		}
		formula := cnf.New(8)
		var cur cnf.Clause
		for _, b := range data {
			v := cnf.Var(int(b&0x0F)%8 + 1)
			cur = append(cur, cnf.MkLit(v, b&0x10 != 0))
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
		diffReduce(t, formula)
	})
}
