package berkmin

import (
	"sync"
	"testing"
)

// TestSnapshotSharedPreprocessing pins the tentpole contract: every solver
// derived from a snapshot shares the one preprocessing outcome (pointer
// identity — preprocessing ran exactly once), answers correctly, and the
// source solver stays independent.
func TestSnapshotSharedPreprocessing(t *testing.T) {
	inst := Parity(40, 44, 3) // sat
	src := New()
	so := DefaultSimplifyOptions()
	src.SetSimplify(&so)
	src.AddFormula(inst.Formula)

	sn := src.Snapshot()
	out := src.SimplifyOutcome()
	if out == nil {
		t.Fatal("snapshot did not run the pending preprocessing")
	}
	for i := 0; i < 3; i++ {
		w := sn.NewSolver()
		if w.SimplifyOutcome() != out {
			t.Fatal("derived solver does not share the snapshot's preprocessing outcome")
		}
		// Models are verified against the original clauses internally
		// (verify is inherited from the source and on by default).
		if r := w.Solve(); r.Status != StatusSat {
			t.Fatalf("derived solver %d: %v", i, r.Status)
		}
	}
	if r := src.Solve(); r.Status != StatusSat {
		t.Fatalf("source solver after snapshot: %v", r.Status)
	}
}

// TestSnapshotQueryStream runs an assumption query stream through a pool
// and checks every verdict against a rebuilt-from-scratch solver.
func TestSnapshotQueryStream(t *testing.T) {
	inst := Parity(40, 44, 7) // sat
	src := New()
	so := DefaultSimplifyOptions()
	src.SetSimplify(&so)
	src.AddFormula(inst.Formula)
	sn := src.Snapshot()
	pool := sn.NewPool()

	for q := 0; q < 16; q++ {
		lit := q%inst.Formula.NumVars + 1
		if q%2 == 1 {
			lit = -lit
		}
		w := pool.Get()
		got := w.SolveAssuming(lit)
		pool.Put(w)

		fresh := New()
		fresh.AddFormula(inst.Formula)
		want := fresh.SolveAssuming(lit)
		if got.Status != want.Status {
			t.Fatalf("query %d (assume %d): pool %v, fresh %v", q, lit, got.Status, want.Status)
		}
	}
}

// TestPoolRecycling: Put hands the same solver back to the next Get, and
// solvers that diverged from the snapshot (extra clauses) are dropped.
func TestPoolRecycling(t *testing.T) {
	src := New()
	src.AddClause(1, 2)
	src.AddClause(-1, 2)
	sn := src.Snapshot()
	pool := sn.NewPool()

	w := pool.Get()
	if r := w.Solve(); r.Status != StatusSat {
		t.Fatalf("pool solver: %v", r.Status)
	}
	pool.Put(w)
	if pool.Get() != w {
		t.Fatal("pool did not recycle the returned solver")
	}
	// The recycled solver was reset: its stats lifetime restarted.
	if c := w.Stats().Decisions; c != 0 {
		t.Fatalf("recycled solver still carries %d decisions", c)
	}
	if r := w.Solve(); r.Status != StatusSat {
		t.Fatalf("recycled solver: %v", r.Status)
	}

	w.AddClause(-2) // diverges from the snapshot (and flips it unsat)
	if r := w.Solve(); r.Status != StatusUnsat {
		t.Fatalf("diverged solver: %v", r.Status)
	}
	pool.Put(w)
	if pool.Get() == w {
		t.Fatal("pool recycled a solver with extra clauses")
	}
}

// TestSolverClone: a front-end clone is fully independent — clauses added
// to it never reach the original — and clones share preprocessing.
func TestSolverClone(t *testing.T) {
	s := New()
	s.AddClause(1, 2)
	s.AddClause(-1, 2)
	c := s.Clone()
	c.AddClause(-2)
	if r := c.Solve(); r.Status != StatusUnsat {
		t.Fatalf("constrained clone: %v", r.Status)
	}
	if r := s.Solve(); r.Status != StatusSat {
		t.Fatalf("original after clone diverged: %v", r.Status)
	}

	inst := Parity(32, 36, 5)
	p := New()
	so := DefaultSimplifyOptions()
	p.SetSimplify(&so)
	p.AddFormula(inst.Formula)
	pc := p.Clone() // triggers the pending preprocessing
	if p.SimplifyOutcome() == nil || pc.SimplifyOutcome() != p.SimplifyOutcome() {
		t.Fatal("clone does not share the original's preprocessing outcome")
	}
	if r := pc.Solve(); r.Status != StatusSat {
		t.Fatalf("preprocessed clone: %v", r.Status)
	}
	if r := p.Solve(); r.Status != StatusSat {
		t.Fatalf("preprocessed original: %v", r.Status)
	}
}

// TestSolverReset: the front-end Reset keeps the loaded formula (including
// clauses added after construction) but drops search state and starts a
// new stats lifetime.
func TestSolverReset(t *testing.T) {
	inst := Pigeonhole(6) // unsat, needs real search
	s := New()
	so := DefaultSimplifyOptions()
	s.SetSimplify(&so)
	s.AddFormula(inst.Formula)
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("first solve: %v", r.Status)
	}
	s.Reset()
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("solve after reset: %v", r.Status)
	}

	sat := New()
	sat.AddClause(1, 2)
	sat.AddClause(-2, 3)
	sat.AddClause(-3) // added before the snapshot point; survives Reset
	if r := sat.Solve(); r.Status != StatusSat {
		t.Fatalf("sat instance: %v", r.Status)
	}
	sat.Reset()
	if c := sat.Stats().Decisions; c != 0 {
		t.Fatalf("reset solver still carries %d decisions", c)
	}
	if r := sat.Solve(); r.Status != StatusSat {
		t.Fatalf("sat instance after reset: %v", r.Status)
	}
}

// TestSnapshotAssumeEliminatedVar: assumptions on variables the shared
// preprocessing eliminated are restored per derived solver, without the
// siblings or the shared outcome noticing.
func TestSnapshotAssumeEliminatedVar(t *testing.T) {
	f := NewFormula(4)
	f.AddClause(1, 2)
	f.AddClause(-2, 3)
	f.AddClause(3, -4)
	src := New()
	so := DefaultSimplifyOptions()
	src.SetSimplify(&so)
	src.AddFormula(f)
	sn := src.Snapshot()
	out := src.SimplifyOutcome()
	if out == nil || len(out.Elims) == 0 {
		t.Fatalf("test instance yielded no eliminations")
	}
	v := int(out.Elims[0].V)

	w1, w2 := sn.NewSolver(), sn.NewSolver()
	for _, tc := range []struct {
		w   *Solver
		lit int
	}{{w1, v}, {w2, -v}} {
		fresh := New()
		fresh.AddFormula(f)
		want := fresh.SolveAssuming(tc.lit).Status
		if got := tc.w.SolveAssuming(tc.lit).Status; got != want {
			t.Fatalf("assume %d: snapshot solver %v, fresh %v", tc.lit, got, want)
		}
	}
	// A third sibling still sees the variable as eliminated and solves fine.
	if r := sn.NewSolver().Solve(); r.Status != StatusSat {
		t.Fatalf("sibling after restores elsewhere: %v", r.Status)
	}
}

// TestSnapshotSolveParallel: the snapshot-based portfolio agrees with the
// sequential answer on SAT and UNSAT instances, and the snapshot's shared
// base serves concurrent calls — and concurrent NewSolver clones — while
// staying reusable.
func TestSnapshotSolveParallel(t *testing.T) {
	insts := []Instance{
		Parity(32, 36, 9), // sat
		Pigeonhole(6),     // unsat
	}
	for _, inst := range insts {
		seq := New()
		seq.AddFormula(inst.Formula)
		want := seq.Solve().Status

		src := New()
		so := DefaultSimplifyOptions()
		src.SetSimplify(&so)
		src.AddFormula(inst.Formula)
		sn := src.Snapshot()
		var wg sync.WaitGroup
		for round := 0; round < 2; round++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				if r := sn.SolveParallel(ParallelOptions{Jobs: 3}); r.Status != want {
					t.Errorf("%s round %d: portfolio %v, sequential %v", inst.Name, round, r.Status, want)
				}
			}()
			go func() {
				defer wg.Done()
				if r := sn.NewSolver().Solve(); r.Status != want {
					t.Errorf("%s round %d: derived solver %v, sequential %v", inst.Name, round, r.Status, want)
				}
			}()
		}
		wg.Wait()
		if r := SolveParallel(inst.Formula, ParallelOptions{Jobs: 3, Simplify: true}); r.Status != want {
			t.Fatalf("%s: package-level portfolio %v, sequential %v", inst.Name, r.Status, want)
		}
	}
}

// TestSnapshotConcurrentWorkers exercises the pool from many goroutines —
// the data-race acceptance check for derived solvers (run under -race).
func TestSnapshotConcurrentWorkers(t *testing.T) {
	inst := Parity(36, 40, 11)
	src := New()
	so := DefaultSimplifyOptions()
	src.SetSimplify(&so)
	src.AddFormula(inst.Formula)
	sn := src.Snapshot()
	pool := sn.NewPool()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for q := 0; q < 4; q++ {
				lit := (g*4+q)%inst.Formula.NumVars + 1
				if (g+q)%2 == 1 {
					lit = -lit
				}
				w := pool.Get()
				r := w.SolveAssuming(lit)
				pool.Put(w)
				if r.Status == StatusUnknown {
					errs <- errUnknown(lit)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errUnknown int

func (e errUnknown) Error() string { return "unexpected unknown verdict under assumption" }

// TestSnapshotSourceKeepsWorking checks the source side of a Snapshot:
// after the capture, the source solver keeps adding clauses, solving and
// resetting while solvers from NewSolver and from a Pool of the snapshot
// answer queries on other goroutines (run under -race). Every answer must
// match a fresh solver's on the same formula.
func TestSnapshotSourceKeepsWorking(t *testing.T) {
	inst := Hanoi(3) // SAT, with many binary clauses left after preprocessing
	src := New()
	so := DefaultSimplifyOptions()
	src.SetSimplify(&so)
	src.AddFormula(inst.Formula)
	sn := src.Snapshot()
	pool := sn.NewPool()

	freshAnswer := func(extra [][]int, assume ...int) Status {
		fresh := New()
		fresh.AddFormula(inst.Formula)
		for _, c := range extra {
			fresh.AddClause(c...)
		}
		return fresh.SolveAssuming(assume...).Status
	}

	const workers, queries = 4, 6
	got := make([][]Status, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				lit := (g*queries+q)%inst.Formula.NumVars + 1
				if q%2 == 1 {
					lit = -lit
				}
				var r Result
				if g%2 == 0 {
					w := pool.Get()
					r = w.SolveAssuming(lit)
					pool.Put(w)
				} else {
					r = sn.NewSolver().SolveAssuming(lit)
				}
				got[g] = append(got[g], r.Status)
			}
		}(g)
	}

	// The source changes its binary-clause lists while the snapshot's
	// solvers read theirs: the chain 1 → n+1 → n+2 → 2 over two new
	// variables, after which assuming 1 and -2 is UNSAT.
	n := inst.Formula.NumVars
	var extra [][]int
	var srcGot, srcWant []Status
	for _, c := range [][]int{{-1, n + 1}, {-(n + 1), n + 2}, {-(n + 2), 2}} {
		if err := src.AddClause(c...); err != nil {
			t.Fatal(err)
		}
		extra = append(extra, c)
		srcGot = append(srcGot, src.Solve().Status)
		src.Reset()
		srcGot = append(srcGot, src.SolveAssuming(1, -2).Status)
		srcWant = append(srcWant, freshAnswer(extra), freshAnswer(extra, 1, -2))
	}
	if srcGot[len(srcGot)-1] != StatusUnsat {
		t.Fatalf("the source's last query answered %v, want UNSAT", srcGot[len(srcGot)-1])
	}
	wg.Wait()

	for i := range srcGot {
		if srcGot[i] != srcWant[i] {
			t.Fatalf("source solve %d after the snapshot: %v, fresh %v", i, srcGot[i], srcWant[i])
		}
	}
	for g := range got {
		for q, st := range got[g] {
			lit := (g*queries+q)%inst.Formula.NumVars + 1
			if q%2 == 1 {
				lit = -lit
			}
			if want := freshAnswer(nil, lit); st != want {
				t.Fatalf("worker %d query %d (assume %d): %v, fresh %v", g, q, lit, st, want)
			}
		}
	}
	if st := pool.Stats(); st.Hits == 0 {
		t.Fatalf("the pool recycled no solver: %+v", st)
	}
}
