package cube

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/core"
	"berkmin/internal/drup"
	"berkmin/internal/gen"
)

// Differential property: cube-and-conquer must agree with a sequential
// solve on every formula — splitting, work stealing, clause sharing and
// proof stitching are all implementation detail that may never change
// answers. SAT models must satisfy the formula and every UNSAT verdict's
// stitched DRUP proof must verify against the original CNF.

// diffCube cross-checks one formula.
func diffCube(t *testing.T, f *cnf.Formula, opt Options) {
	t.Helper()
	seq := core.New(core.DefaultOptions())
	seq.AddFormula(f)
	want := seq.Solve().Status

	var proof bytes.Buffer
	opt.Proof = &proof
	r := conquer(context.Background(), f, opt)
	if r.Status != want {
		t.Fatalf("cube %v, sequential %v", r.Status, want)
	}
	switch r.Status {
	case core.StatusSat:
		if !cnf.Assignment(r.Model).Satisfies(f) {
			t.Fatal("cube model does not satisfy the formula")
		}
	case core.StatusUnsat:
		res, err := drup.Check(f, &proof)
		if err != nil {
			t.Fatalf("stitched proof: %v", err)
		}
		if !res.EmptyDerived {
			t.Fatal("stitched proof does not derive the empty clause")
		}
	default:
		t.Fatalf("unbudgeted run returned %v (%v)", r.Status, r.Stop)
	}

	// The same formula again without a proof writer, so the sharing path
	// (inert under proof logging) gets differential coverage too.
	opt.Proof = nil
	if r2 := conquer(context.Background(), f, opt); r2.Status != want {
		t.Fatalf("cube with sharing %v, sequential %v", r2.Status, want)
	}
}

func TestCubeDifferentialGenSuite(t *testing.T) {
	cases := []gen.Instance{
		gen.Pigeonhole(6),
		gen.Pigeonhole(7),
		gen.Queens(6),
		gen.Queens(8),
		gen.MiterUnsat(8, 40, 7),
		gen.Hanoi(3),
	}
	for _, inst := range cases {
		inst := inst
		t.Run(inst.Name, func(t *testing.T) {
			diffCube(t, inst.Formula, Options{Jobs: 3, MaxCubes: 24, MaxDepth: 8})
		})
	}
}

func TestCubeDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		vars := 12 + rng.Intn(12)
		clauses := int(float64(vars) * (3.5 + rng.Float64()))
		inst := gen.RandomKSat(vars, clauses, 3, int64(100+i))
		t.Run(fmt.Sprintf("r3sat-%d", i), func(t *testing.T) {
			diffCube(t, inst.Formula, Options{Jobs: 2, MaxCubes: 16, MaxDepth: 6})
		})
	}
}

// FuzzCubeDifferential decodes arbitrary bytes into a small CNF (same
// encoding as core's FuzzSolveAgainstDPLL: low 4 bits variable, bit 4
// sign, bits 5-6 end-clause) and cross-checks cube-and-conquer against a
// sequential solve, including stitched-proof verification on UNSAT.
func FuzzCubeDifferential(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x40, 0x23, 0x05, 0x60})
	f.Add([]byte{0x01, 0x40, 0x11, 0x40})
	f.Add([]byte{0x07, 0x18, 0x40, 0x17, 0x08, 0x40, 0x07, 0x08, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
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
		diffCube(t, formula, Options{Jobs: 2, MaxCubes: 8, MaxDepth: 4})
	})
}
