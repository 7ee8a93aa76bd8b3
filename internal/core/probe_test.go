package core

import (
	"testing"

	"berkmin/internal/cnf"
)

// chain builds (¬1∨2), (¬2∨3), ..., (¬(n-1)∨n): assuming 1 propagates
// the whole chain.
func chain(n int) *cnf.Formula {
	f := cnf.New(n)
	for v := cnf.Var(1); v < cnf.Var(n); v++ {
		f.Add(cnf.NewClause(-int(v), int(v)+1))
	}
	return f
}

func TestProbeAssumePropagates(t *testing.T) {
	s := New(DefaultOptions())
	s.AddFormula(chain(5))
	trail0 := s.TrailLen()

	implied, conflict := s.ProbeAssume(cnf.PosLit(1))
	if conflict {
		t.Fatal("unexpected conflict")
	}
	if implied != 5 {
		t.Fatalf("implied = %d, want 5 (the whole chain)", implied)
	}
	if s.ProbeLevel() != 1 {
		t.Fatalf("level = %d, want 1", s.ProbeLevel())
	}
	for v := cnf.Var(1); v <= 5; v++ {
		if !s.Assigned(v) {
			t.Fatalf("var %d unassigned under probe", v)
		}
	}

	s.ProbeRetract(0)
	if s.ProbeLevel() != 0 || s.TrailLen() != trail0 {
		t.Fatalf("retract left level %d, trail %d", s.ProbeLevel(), s.TrailLen())
	}
	for v := cnf.Var(1); v <= 5; v++ {
		if s.Assigned(v) {
			t.Fatalf("var %d still assigned after retract", v)
		}
	}
}

func TestProbeFailedLiteral(t *testing.T) {
	s := New(DefaultOptions())
	f := cnf.New(2)
	f.Add(cnf.NewClause(-1, 2))
	f.Add(cnf.NewClause(-1, -2))
	s.AddFormula(f)

	if _, conflict := s.ProbeAssume(cnf.PosLit(1)); !conflict {
		t.Fatal("probing a failed literal did not conflict")
	}
	s.ProbeRetract(0)
	if _, conflict := s.ProbeAssume(cnf.NegLit(1)); conflict {
		t.Fatal("probing the complement conflicted")
	}
	s.ProbeRetract(0)

	// The probes must not have corrupted the search: the formula is SAT.
	if r := s.Solve(); r.Status != StatusSat {
		t.Fatalf("after probing: %v", r.Status)
	}
}

func TestProbeStackedAndDegenerate(t *testing.T) {
	s := New(DefaultOptions())
	s.AddFormula(chain(4))

	s.ProbeAssume(cnf.PosLit(1))
	// Already true under the active probe: no new assignments, no conflict,
	// but a level was still pushed and must be retracted.
	if implied, conflict := s.ProbeAssume(cnf.PosLit(3)); implied != 0 || conflict {
		t.Fatalf("re-probing an implied literal: implied=%d conflict=%v", implied, conflict)
	}
	// Already false under the active probe: immediate conflict, nothing added.
	if implied, conflict := s.ProbeAssume(cnf.NegLit(4)); implied != 0 || !conflict {
		t.Fatalf("probing a falsified literal: implied=%d conflict=%v", implied, conflict)
	}
	if s.ProbeLevel() != 3 {
		t.Fatalf("level = %d, want 3 (one per probe)", s.ProbeLevel())
	}
	s.ProbeRetract(0)
	if s.TrailLen() != 0 {
		t.Fatalf("trail not empty after retract: %d", s.TrailLen())
	}
}

func TestLitOccurrences(t *testing.T) {
	s := New(DefaultOptions())
	f := cnf.New(3)
	f.Add(cnf.NewClause(1, 2, 3))
	f.Add(cnf.NewClause(1, -2))
	f.Add(cnf.NewClause(-1, -2, 3))
	s.AddFormula(f)

	occ := s.LitOccurrences()
	want := map[cnf.Lit]int32{
		cnf.PosLit(1): 2, cnf.NegLit(1): 1,
		cnf.PosLit(2): 1, cnf.NegLit(2): 2,
		cnf.PosLit(3): 2, cnf.NegLit(3): 0,
	}
	for l, n := range want {
		if occ[l] != n {
			t.Errorf("occ[%v] = %d, want %d", l, occ[l], n)
		}
	}
}
