package berkmin_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"berkmin"
)

// TestSolveCubes: the public cube-and-conquer entry point agrees with the
// known statuses and returns verified models.
func TestSolveCubes(t *testing.T) {
	sat := berkmin.Hanoi(3)
	r := berkmin.SolveCubes(sat.Formula, berkmin.CubeOptions{Jobs: 2, MaxCubes: 16})
	if r.Status != berkmin.StatusSat {
		t.Fatalf("hanoi: %v", r.Status)
	}
	if len(r.Model) == 0 {
		t.Fatal("SAT without a model")
	}

	unsat := berkmin.Pigeonhole(7)
	r = berkmin.SolveCubes(unsat.Formula, berkmin.CubeOptions{Jobs: 2, MaxCubes: 16})
	if r.Status != berkmin.StatusUnsat {
		t.Fatalf("pigeonhole: %v", r.Status)
	}
	if r.Cubes+r.Refuted == 0 {
		t.Fatal("no split happened")
	}

	// With Simplify the cubes split a formula with variables eliminated;
	// the model must come back in the original variables.
	if o := berkmin.Simplify(sat.Formula, berkmin.DefaultSimplifyOptions()); len(o.Elims) == 0 {
		t.Fatal("preprocessing eliminates nothing; the check below would not cover reconstruction")
	}
	r = berkmin.SolveCubes(sat.Formula, berkmin.CubeOptions{Jobs: 2, MaxCubes: 16, Simplify: true})
	if r.Status != berkmin.StatusSat {
		t.Fatalf("hanoi with simplify: %v", r.Status)
	}
	if !berkmin.Verify(sat.Formula, r.Model) {
		t.Fatal("model does not satisfy the original formula")
	}
}

// refutedBySimplify returns a formula that preprocessing alone refutes.
func refutedBySimplify(t *testing.T) *berkmin.Formula {
	t.Helper()
	f := berkmin.NewFormula(2)
	f.AddClause(1)
	f.AddClause(-1, 2)
	f.AddClause(-2, -1)
	if !berkmin.Simplify(f, berkmin.DefaultSimplifyOptions()).Unsat {
		t.Fatal("preprocessing does not refute the formula on its own")
	}
	return f
}

// TestSolveCubesProofComposesWithSimplify: preprocessing leads the trace
// and the stitched per-cube refutations follow, so the whole proof checks
// against the ORIGINAL formula — the same composition contract as the
// sequential front-end.
func TestSolveCubesProofComposesWithSimplify(t *testing.T) {
	// Pigeonhole needs the cubes; the second formula is refuted by
	// preprocessing before any cube exists.
	for _, f := range []*berkmin.Formula{berkmin.Pigeonhole(7).Formula, refutedBySimplify(t)} {
		var proof bytes.Buffer
		r := berkmin.SolveCubes(f, berkmin.CubeOptions{
			Jobs: 2, MaxCubes: 16, Simplify: true, Proof: &proof,
		})
		if r.Status != berkmin.StatusUnsat {
			t.Fatalf("status = %v", r.Status)
		}
		res, err := berkmin.CheckDRUP(f, &proof)
		if err != nil {
			t.Fatalf("proof check: %v", err)
		}
		if !res.EmptyDerived {
			t.Fatal("composed proof does not derive the empty clause")
		}
	}
}

// TestSolveCubesContext: a pre-fired context returns the sentinel without
// starting work.
func TestSolveCubesContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := berkmin.SolveCubesContext(ctx, berkmin.Pigeonhole(8).Formula, berkmin.CubeOptions{})
	if !errors.Is(err, berkmin.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
