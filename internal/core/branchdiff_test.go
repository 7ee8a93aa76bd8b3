package core

import (
	"bytes"
	"math/rand"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/drup"
	"berkmin/internal/gen"
)

// Differential property test for the branching plane: BerkMin, EVSIDS and
// LRB are free to explore the search space in any order, but they must
// never change answers. Every formula is solved to completion under all
// three deciders; verdicts must agree pairwise, SAT models must satisfy the
// formula, and — because branching bugs can surface as bogus conflicts and
// hence "miracle UNSAT" runs — every UNSAT verdict carries a DRUP proof
// checked against the original CNF.

// branchingSides returns the three decider families under comparison, each
// with an aggressive restart schedule so the differential exercises heap
// rebuilds, phase reuse and activity churn, not just one long descent.
func branchingSides() []struct {
	name string
	opt  Options
} {
	berkmin := DefaultOptions()
	berkmin.RestartFirst = 8
	berkmin.RestartJitter = 4
	evsids := EvsidsOptions()
	evsids.RestartFirst = 8
	evsids.RestartJitter = 4
	lrb := LrbOptions()
	lrb.RestartFirst = 8
	lrb.RestartJitter = 4
	return []struct {
		name string
		opt  Options
	}{
		{"berkmin", berkmin},
		{"evsids", evsids},
		{"lrb", lrb},
	}
}

// diffBranching solves f under every decider family and cross-checks
// verdicts, models and proofs. All sides are unlimited, so UNKNOWN is
// impossible on the instrument sizes used here.
func diffBranching(t *testing.T, f *cnf.Formula) {
	t.Helper()
	sides := branchingSides()
	want := StatusUnknown
	for _, side := range sides {
		st, proof, model := runDiffSide(t, f, New(side.opt))
		if want == StatusUnknown {
			want = st
		}
		if st != want {
			t.Fatalf("%s verdict %v disagrees with %s", side.name, st, want)
		}
		switch st {
		case StatusSat:
			if !cnf.Assignment(model).Satisfies(f) {
				t.Fatalf("%s model does not satisfy the formula", side.name)
			}
		case StatusUnsat:
			res, err := drup.Check(f, bytes.NewReader(proof.Bytes()))
			if err != nil {
				t.Fatalf("%s proof: %v", side.name, err)
			}
			if !res.EmptyDerived {
				t.Fatalf("%s proof never derives the empty clause", side.name)
			}
		default:
			t.Fatalf("%s: unlimited run returned UNKNOWN", side.name)
		}
	}
}

// TestBranchingDifferentialGenSuite runs the three-way comparison over the
// regenerated benchmark classes: structured UNSAT cores plus parity
// instances with planted solutions, so both verdict paths are exercised.
func TestBranchingDifferentialGenSuite(t *testing.T) {
	instances := []gen.Instance{
		gen.Pigeonhole(4),
		gen.Pigeonhole(5),
		gen.Pigeonhole(6),
		gen.Parity(12, 10, 3),
		gen.Parity(16, 16, 9),
	}
	for _, inst := range instances {
		diffBranching(t, inst.Formula)
	}
}

// TestBranchingDifferentialRandom3SAT sweeps random 3-SAT across the phase
// transition (ratios ~3.5 to ~5.2), where decider disagreements would be
// most likely to surface as divergent verdicts.
func TestBranchingDifferentialRandom3SAT(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
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
		diffBranching(t, f)
	}
}

// FuzzBranchingDifferential feeds arbitrary byte strings through the
// three-way decider comparison: bytes build a formula over 8 variables (low
// 4 bits variable, bit 4 sign, bits 5-6 end-clause markers — the
// FuzzSolveAgainstDPLL encoding). All deciders solve it to completion with
// proofs; verdicts must agree and every UNSAT proof must verify.
func FuzzBranchingDifferential(f *testing.F) {
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
		diffBranching(t, formula)
	})
}
