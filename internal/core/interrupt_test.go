package core

import (
	"strings"
	"testing"
	"time"

	"berkmin/internal/cnf"
)

// TestInterruptFromAnotherGoroutine: Interrupt during a long-running solve
// makes Solve return promptly with the interrupted stop reason. Run with
// -race this also exercises the cross-goroutine safety of the flag.
func TestInterruptFromAnotherGoroutine(t *testing.T) {
	s := New(DefaultOptions())
	s.AddFormula(pigeonhole(11)) // far beyond what finishes in the sleep below
	done := make(chan Result, 1)
	go func() { done <- s.Solve() }()
	time.Sleep(50 * time.Millisecond)
	s.Interrupt()
	select {
	case r := <-done:
		if r.Status != StatusUnknown {
			t.Fatalf("status = %v, want unknown", r.Status)
		}
		if r.Stop != StopInterrupted || r.Stats.Stop != StopInterrupted {
			t.Fatalf("stop = %v / %v, want interrupted", r.Stop, r.Stats.Stop)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Solve did not return promptly after Interrupt")
	}
}

// TestInterruptSticky: an interrupt delivered before Solve starts still
// stops it (race-free hand-off), and ClearInterrupt re-arms the solver.
func TestInterruptSticky(t *testing.T) {
	s := New(DefaultOptions())
	s.AddFormula(pigeonhole(6))
	s.Interrupt()
	if r := s.Solve(); r.Status != StatusUnknown || r.Stop != StopInterrupted {
		t.Fatalf("interrupted-before-solve: %v/%v", r.Status, r.Stop)
	}
	s.ClearInterrupt()
	if r := s.Solve(); r.Status != StatusUnsat || r.Stop != StopNone {
		t.Fatalf("after clear: %v/%v", r.Status, r.Stop)
	}
}

// TestStopReasons: each budget reports its own explicit reason, and
// definitive answers report StopNone.
func TestStopReasons(t *testing.T) {
	o := DefaultOptions()
	o.MaxConflicts = 5
	s := New(o)
	s.AddFormula(pigeonhole(9))
	if r := s.Solve(); r.Stop != StopConflicts {
		t.Fatalf("conflict budget: stop = %v", r.Stop)
	}

	o = DefaultOptions()
	o.MaxTime = time.Nanosecond
	s = New(o)
	s.AddFormula(pigeonhole(9))
	if r := s.Solve(); r.Stop != StopTime {
		t.Fatalf("time budget: stop = %v", r.Stop)
	}

	s = New(DefaultOptions())
	s.AddFormula(pigeonhole(5))
	if r := s.Solve(); r.Status != StatusUnsat || r.Stop != StopNone {
		t.Fatalf("definitive answer: %v/%v", r.Status, r.Stop)
	}
}

func TestStopReasonStrings(t *testing.T) {
	for _, r := range []StopReason{StopNone, StopConflicts, StopTime, StopInterrupted} {
		if s := r.String(); s == "" || strings.Contains(s, " ") {
			t.Errorf("StopReason(%d).String() = %q", r, s)
		}
	}
	if StopNone.ResourceLimit() || StopInterrupted.ResourceLimit() {
		t.Error("none/interrupted are not resource limits")
	}
	if !StopConflicts.ResourceLimit() || !StopTime.ResourceLimit() {
		t.Error("budget reasons must be resource limits")
	}
}

// TestExportHookSeesShortLearnts: the export hook observes exactly the
// learnt clauses that pass the export filter (short or low-glue), as fresh
// copies.
func TestExportHookSeesShortLearnts(t *testing.T) {
	type export struct {
		lits []cnf.Lit
		glue int
	}
	var got []export
	s := New(DefaultOptions())
	s.SetLearntExport(func(lits []cnf.Lit, glue int) { got = append(got, export{lits, glue}) })
	s.AddFormula(pigeonhole(6))
	r := s.Solve()
	if r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	if len(got) == 0 {
		t.Fatal("no clauses exported on an instance with thousands of conflicts")
	}
	if uint64(len(got)) != r.Stats.ExportedClauses {
		t.Fatalf("hook saw %d clauses, stats say %d", len(got), r.Stats.ExportedClauses)
	}
	for _, e := range got {
		if len(e.lits) == 0 || len(e.lits) > shareMaxLen && e.glue > shareMaxGlue {
			t.Fatalf("exported clause of length %d, glue %d escaped the filter", len(e.lits), e.glue)
		}
	}
}

// TestImportImpliedClause: importing a consequence of the formula changes
// neither the answer nor model validity, and is counted.
func TestImportImpliedClause(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2))
	s.AddClause(cnf.NewClause(-1, 3))
	s.Import([]cnf.Lit{cnf.FromDimacs(2), cnf.FromDimacs(3)}, 0) // the resolvent
	r := s.Solve()
	if r.Status != StatusSat {
		t.Fatalf("status = %v", r.Status)
	}
	if r.Stats.ImportedClauses != 1 {
		t.Fatalf("imported = %d, want 1", r.Stats.ImportedClauses)
	}
	f := cnf.New(3)
	f.Add(cnf.NewClause(1, 2))
	f.Add(cnf.NewClause(-1, 3))
	if !cnf.Assignment(r.Model).Satisfies(f) {
		t.Fatal("model no longer satisfies the formula")
	}
}

// TestImportUnitConflict: an imported unit contradicting a level-0
// assignment is detected as unsatisfiability when drained.
func TestImportUnitConflict(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1))
	s.Import([]cnf.Lit{cnf.FromDimacs(-1)}, 0)
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("status = %v, want unsat", r.Status)
	}
}

// TestImportDroppedUnderProofLogging: imports would corrupt a DRUP trace,
// so they are refused while a proof writer is attached.
func TestImportDroppedUnderProofLogging(t *testing.T) {
	s := New(DefaultOptions())
	s.SetProofWriter(&strings.Builder{})
	s.AddClause(cnf.NewClause(1, 2))
	s.Import([]cnf.Lit{cnf.FromDimacs(1)}, 0)
	r := s.Solve()
	if r.Status != StatusSat {
		t.Fatalf("status = %v", r.Status)
	}
	if r.Stats.ImportedClauses != 0 {
		t.Fatalf("imported = %d, want 0 under proof logging", r.Stats.ImportedClauses)
	}
}
