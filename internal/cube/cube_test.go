package cube

import (
	"bytes"
	"context"
	"math/bits"
	"testing"
	"time"

	"berkmin/internal/cnf"
	"berkmin/internal/core"
	"berkmin/internal/drup"
	"berkmin/internal/gen"
)

// conquer loads f into a fresh master and conquers it: the formula-in
// call every test here shares.
func conquer(ctx context.Context, f *cnf.Formula, opt Options) Result {
	master := core.New(core.DefaultOptions())
	master.AddFormula(f)
	return SolveContext(ctx, master, opt)
}

// TestSplitShape pins the bound that makes a depth cutoff redundant: the
// split budget halves at each level, so Split returns at most MaxCubes
// cubes, none longer than ⌈log2 MaxCubes⌉ literals. 24 covers the uneven
// split of an odd budget; MaxCubes 0 budgets CubesPerWorker per worker.
func TestSplitShape(t *testing.T) {
	f := gen.Pigeonhole(7).Formula
	var cases []Options
	for _, maxCubes := range []int{8, 24, 32, 256} {
		cases = append(cases, Options{MaxCubes: maxCubes})
	}
	for _, jobs := range []int{1, 2, 4} {
		cases = append(cases, Options{Jobs: jobs})
	}
	for _, opt := range cases {
		bound := opt.MaxCubes
		if bound == 0 {
			bound = opt.Jobs * CubesPerWorker
		}
		maxLen := bits.Len(uint(bound - 1)) // ⌈log2 bound⌉
		cubes := Split(f, opt)
		if len(cubes) == 0 || len(cubes) > bound {
			t.Fatalf("%+v: got %d cubes, want 1..%d", opt, len(cubes), bound)
		}
		for _, c := range cubes {
			if len(c) > maxLen {
				t.Fatalf("%+v: cube of %d literals, want at most %d: %v", opt, len(c), maxLen, c)
			}
			seen := map[cnf.Var]bool{}
			for _, l := range c {
				if seen[l.Var()] {
					t.Fatalf("cube repeats variable %d: %v", l.Var(), c)
				}
				seen[l.Var()] = true
			}
		}
	}
}

func TestCubeSat(t *testing.T) {
	f := gen.Queens(8).Formula
	r := conquer(context.Background(), f, Options{Jobs: 2, MaxCubes: 16})
	if r.Status != core.StatusSat {
		t.Fatalf("status = %v", r.Status)
	}
	if !cnf.Assignment(r.Model).Satisfies(f) {
		t.Fatal("model does not satisfy the formula")
	}
}

func TestCubeUnsatWithStitchedProof(t *testing.T) {
	f := gen.Pigeonhole(7).Formula
	var proof bytes.Buffer
	r := conquer(context.Background(), f, Options{Jobs: 2, MaxCubes: 16, Proof: &proof})
	if r.Status != core.StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	if r.Cubes+r.Refuted == 0 {
		t.Fatal("no cubes produced")
	}
	res, err := drup.Check(f, &proof)
	if err != nil {
		t.Fatalf("proof check: %v", err)
	}
	if !res.EmptyDerived {
		t.Fatal("stitched proof does not derive the empty clause")
	}
}

// TestCubeUnsatSharing: the no-proof path wires the hub; the verdict must
// still be correct with clauses flowing between workers.
func TestCubeUnsatSharing(t *testing.T) {
	f := gen.Pigeonhole(8).Formula
	r := conquer(context.Background(), f, Options{Jobs: 4, MaxCubes: 64})
	if r.Status != core.StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	if r.Solved == 0 {
		t.Fatal("no cubes conquered")
	}
}

// TestCubeRefutedAtIngestion: a formula with an empty clause dies during
// AddClause; the driver must answer UNSAT with a one-line proof.
func TestCubeRefutedAtIngestion(t *testing.T) {
	f := cnf.New(2)
	f.Add(cnf.NewClause(1))
	f.Add(cnf.NewClause(-1))
	var proof bytes.Buffer
	r := conquer(context.Background(), f, Options{Proof: &proof})
	if r.Status != core.StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	res, err := drup.Check(f, &proof)
	if err != nil || !res.EmptyDerived {
		t.Fatalf("proof: derived=%v err=%v", res.EmptyDerived, err)
	}
}

func TestCubeDeadline(t *testing.T) {
	f := gen.Pigeonhole(10).Formula
	r := conquer(context.Background(), f, Options{Jobs: 2, MaxTime: 10 * time.Millisecond})
	if r.Status == core.StatusSat {
		t.Fatalf("pigeonhole(10) cannot be SAT: %v", r.Status)
	}
	if r.Status == core.StatusUnknown && !r.Stop.ResourceLimit() && r.Stop != core.StopInterrupted {
		t.Fatalf("unknown verdict with stop = %v", r.Stop)
	}
}

func TestCubeContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := gen.Pigeonhole(9).Formula
	r := conquer(ctx, f, Options{Jobs: 2})
	if r.Status != core.StatusUnknown || r.Stop != core.StopInterrupted {
		t.Fatalf("status = %v stop = %v", r.Status, r.Stop)
	}
}

// TestCubeFromSolver: conquering from a preloaded master whose
// options differ from the workers' configuration — the workers are
// reconfigured, and the master serves as worker 0.
func TestCubeFromSolver(t *testing.T) {
	f := gen.Queens(7).Formula
	master := core.New(core.ChaffOptions())
	master.AddFormula(f)
	r := SolveContext(context.Background(), master, Options{Jobs: 2, MaxCubes: 8})
	if r.Status != core.StatusSat {
		t.Fatalf("status = %v", r.Status)
	}
	if !cnf.Assignment(r.Model).Satisfies(f) {
		t.Fatal("model does not satisfy the formula")
	}
}

// TestStealBack pins the deque contract: thieves take a batch from the
// back, owners keep the front.
func TestStealBack(t *testing.T) {
	d := &deque{items: []int{1, 2, 3, 4, 5}}
	stolen := d.stealBack()
	if len(stolen) != 3 || stolen[0] != 3 {
		t.Fatalf("stole %v, want back half [3 4 5]", stolen)
	}
	if idx, ok := d.popFront(); !ok || idx != 1 {
		t.Fatalf("owner front = %d/%v, want 1", idx, ok)
	}
}
