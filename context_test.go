package berkmin_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"berkmin"
)

// hardInstance is UNSAT and expensive enough that a solve is reliably
// still running when a short deadline or cancellation fires.
func hardInstance() *berkmin.Formula { return berkmin.Pigeonhole(9).Formula }

func TestSolveContextDefinitive(t *testing.T) {
	s := berkmin.New()
	s.AddClause(1, 2)
	s.AddClause(-1)
	r, err := s.SolveContext(context.Background())
	if err != nil || r.Status != berkmin.StatusSat {
		t.Fatalf("SolveContext = %v, %v; want SAT, nil", r.Status, err)
	}
}

func TestSolveContextDeadline(t *testing.T) {
	s := berkmin.New()
	s.AddFormula(hardInstance())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	r, err := s.SolveContext(ctx)
	if !errors.Is(err, berkmin.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if r.Status != berkmin.StatusUnknown || r.Stop != berkmin.StopInterrupted {
		t.Fatalf("result = %v/%v, want Unknown/StopInterrupted", r.Status, r.Stop)
	}
	// The context variant must have cleared the interrupt: the solver is
	// immediately reusable and reaches the real verdict given time.
	if r, err := s.SolveContext(context.Background()); err != nil || r.Status != berkmin.StatusUnsat {
		t.Fatalf("reuse after deadline: %v, %v; want UNSAT, nil", r.Status, err)
	}
}

func TestSolveContextCancel(t *testing.T) {
	s := berkmin.New()
	s.AddFormula(hardInstance())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	r, err := s.SolveContext(ctx)
	if !errors.Is(err, berkmin.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if r.Stop != berkmin.StopInterrupted {
		t.Fatalf("stop = %v, want StopInterrupted", r.Stop)
	}
}

func TestSolveContextAlreadyExpired(t *testing.T) {
	s := berkmin.New()
	s.AddClause(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SolveContext(ctx); !errors.Is(err, berkmin.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// Untouched by the expired call and still solvable.
	if r, err := s.SolveContext(context.Background()); err != nil || r.Status != berkmin.StatusSat {
		t.Fatalf("after expired ctx: %v, %v", r.Status, err)
	}
}

func TestSolveContextBudgetExhausted(t *testing.T) {
	opt := berkmin.DefaultOptions()
	opt.MaxConflicts = 5
	s := berkmin.NewWithOptions(opt)
	s.AddFormula(hardInstance())
	r, err := s.SolveContext(context.Background())
	if !errors.Is(err, berkmin.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if r.Stop != berkmin.StopConflicts {
		t.Fatalf("stop = %v, want StopConflicts", r.Stop)
	}
}

func TestSolveAssumingContext(t *testing.T) {
	s := berkmin.New()
	s.AddClause(1, 2)
	r, err := s.SolveAssumingContext(context.Background(), -1)
	if err != nil || r.Status != berkmin.StatusSat || !r.Model[2] {
		t.Fatalf("SolveAssumingContext(-1) = %v, %v", r, err)
	}
	if _, err := s.SolveAssumingContext(context.Background(), 1, 0); !errors.Is(err, berkmin.ErrInvalidLiteral) {
		t.Fatalf("zero assumption err = %v, want ErrInvalidLiteral", err)
	}
}

func TestSolveContextInterruptedManually(t *testing.T) {
	s := berkmin.New()
	s.AddFormula(hardInstance())
	s.Interrupt() // sticky: the solve returns immediately
	_, err := s.SolveContext(context.Background())
	if !errors.Is(err, berkmin.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	s.ClearInterrupt()
}

// TestPoolReuseAfterContextCancel is the regression test for the pooled
// reuse guarantee: a solver whose solve was cut short by a context must,
// after Pool.Put, serve a correct verdict on the next Get. This covers
// both the ClearInterrupt in the context plumbing and the one in Reset —
// a stale sticky interrupt would make every later solve return Unknown
// immediately.
func TestPoolReuseAfterContextCancel(t *testing.T) {
	front := berkmin.New()
	front.AddFormula(hardInstance())
	front.AddClause(1000) // an easy extra variable for assumption queries
	pool := front.Snapshot().NewPool()

	w := pool.Get()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := w.SolveAssumingContext(ctx, 1000); !errors.Is(err, berkmin.ErrDeadline) {
		t.Fatalf("first query err = %v, want ErrDeadline", err)
	}
	pool.Put(w)

	// Also exercise the rawest path: an interrupted solver handed straight
	// back without anyone calling ClearInterrupt.
	w = pool.Get()
	w.Interrupt()
	if r := w.SolveAssuming(1000); r.Stop != berkmin.StopInterrupted {
		t.Fatalf("interrupted query stop = %v", r.Stop)
	}
	pool.Put(w)

	w = pool.Get()
	r, err := w.SolveAssumingContext(context.Background(), 1000)
	if err != nil || r.Status != berkmin.StatusUnsat {
		t.Fatalf("recycled solver verdict = %v, %v; want UNSAT, nil", r.Status, err)
	}
	pool.Put(w)

	st := pool.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("pool stats did not record recycling: %+v", st)
	}
}

func TestPoolMaxIdle(t *testing.T) {
	front := berkmin.New()
	front.AddClause(1, 2)
	pool := front.Snapshot().NewPool()
	pool.SetMaxIdle(1)
	a, b := pool.Get(), pool.Get()
	pool.Put(a)
	pool.Put(b)
	st := pool.Stats()
	if st.Idle != 1 || st.Dropped != 1 {
		t.Fatalf("stats = %+v, want Idle=1 Dropped=1", st)
	}
}

func TestSolveParallelContextCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	r, err := berkmin.SolveParallelContext(ctx, hardInstance(), berkmin.ParallelOptions{Jobs: 2})
	if !errors.Is(err, berkmin.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if r.Status != berkmin.StatusUnknown {
		t.Fatalf("status = %v, want Unknown", r.Status)
	}
}

func TestSnapshotSolveParallelContext(t *testing.T) {
	front := berkmin.New()
	front.AddClause(1, 2)
	front.AddClause(-1, 2)
	sn := front.Snapshot()
	r, err := sn.SolveParallelContext(context.Background(), berkmin.ParallelOptions{Jobs: 2})
	if err != nil || r.Status != berkmin.StatusSat {
		t.Fatalf("snapshot parallel = %v, %v; want SAT, nil", r.Status, err)
	}
}

// TestEnginesStopDuringPreprocessing: on a blocksworld instance where
// preprocessing dominates, a deadline that fires inside preprocessing
// stops both parallel engines there — ErrDeadline and StatusUnknown, long
// before unbounded preprocessing would have finished.
func TestEnginesStopDuringPreprocessing(t *testing.T) {
	f := berkmin.Blocksworld(7, 14, 2).Formula
	start := time.Now()
	berkmin.Simplify(f, berkmin.DefaultSimplifyOptions())
	unbounded := time.Since(start)
	deadline := unbounded / 50

	solvers := map[string]func(ctx context.Context) (berkmin.Status, error){
		"portfolio": func(ctx context.Context) (berkmin.Status, error) {
			r, err := berkmin.SolveParallelContext(ctx, f, berkmin.ParallelOptions{Jobs: 2, Simplify: true})
			return r.Status, err
		},
		"cubes": func(ctx context.Context) (berkmin.Status, error) {
			r, err := berkmin.SolveCubesContext(ctx, f, berkmin.CubeOptions{Jobs: 2, Simplify: true})
			return r.Status, err
		},
	}
	for name, solve := range solvers {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		status, err := solve(ctx)
		took := time.Since(start)
		cancel()
		if !errors.Is(err, berkmin.ErrDeadline) || status != berkmin.StatusUnknown {
			t.Errorf("%s: %v, %v; want Unknown, ErrDeadline", name, status, err)
		}
		if took > unbounded/2 {
			t.Errorf("%s: returned after %v with a %v deadline; unbounded preprocessing takes %v", name, took, deadline, unbounded)
		}
	}
}
