package core

import (
	"bytes"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/drup"
)

// addLearntAttached pushes a watched learnt clause with the given DIMACS
// literals onto the stack (white-box: bypasses conflict analysis).
func addLearntAttached(s *Solver, xs ...int) clauseRef {
	c := cnf.NewClause(xs...)
	s.ensureVars(int(c.MaxVar()))
	r := s.ca.alloc(c, true)
	s.learnts = append(s.learnts, r)
	s.attach(r)
	return r
}

func TestSubsumePassRemovesSubsumedClauses(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2))
	s.AddClause(cnf.NewClause(1, 2, 4))  // problem clause subsumed by (1 2)
	sub := addLearntAttached(s, 1, 2, 3) // learnt subsumed by (1 2)
	top := addLearntAttached(s, 5, 6)    // top of the stack, not subsumed
	if !s.subsumePass() {
		t.Fatal("subsumption pass reported no change")
	}
	if !s.ca.deleted(sub) {
		t.Fatal("subsumed learnt clause not removed")
	}
	if s.ca.deleted(top) {
		t.Fatal("unsubsumed top clause removed")
	}
	if got := s.stats.SubsumedClauses; got != 2 {
		t.Fatalf("SubsumedClauses = %d, want 2 (one problem, one learnt)", got)
	}
}

// TestSubsumePassLearntNeverRemovesProblemClause: a learnt subsumer is
// itself deletable by database management, so letting it tombstone a
// problem clause would lose the constraint for good once the learnt ages
// out — the removal must be skipped.
func TestSubsumePassLearntNeverRemovesProblemClause(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2, 3)) // problem clause, superset of the learnt
	addLearntAttached(s, 1, 2)
	addLearntAttached(s, 5, 6) // top clause, keeps (1 2) eligible as a subsumer
	s.subsumePass()
	if s.ca.deleted(s.clauses[0]) {
		t.Fatal("learnt clause removed a problem clause")
	}
}

func TestSubsumePassProtectsTopClause(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2))
	top := addLearntAttached(s, 1, 2, 3) // subsumed, but topmost: §8 anti-looping keeps it
	s.subsumePass()
	if s.ca.deleted(top) {
		t.Fatal("topmost learnt clause removed by subsumption")
	}
}

func TestStrengthenPassSelfSubsumption(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2))
	s.AddClause(cnf.NewClause(-1, 2, 3)) // resolving on 1 with (1 2) gives (2 3) ⊂ it
	if !s.subsumePass() {
		t.Fatal("strengthening pass reported no change")
	}
	c := s.clauses[1]
	if got := s.ca.size(c); got != 2 {
		t.Fatalf("clause size = %d after strengthening, want 2", got)
	}
	if s.ca.has(c, cnf.NegLit(1)) {
		t.Fatal("literal -1 not deleted by self-subsuming resolution")
	}
	if s.stats.StrengthenedLits != 1 {
		t.Fatalf("StrengthenedLits = %d, want 1", s.stats.StrengthenedLits)
	}
}

func TestStrengthenToUnitBecomesLevel0Assignment(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2))
	s.AddClause(cnf.NewClause(-1, 2)) // strengthens to the unit (2)
	s.inprocess()
	if !s.ok {
		t.Fatal("inprocessing refuted a satisfiable formula")
	}
	if s.value(cnf.PosLit(2)) != lTrue {
		t.Fatal("unit from strengthening not retained as a level-0 assignment")
	}
}

func TestVivifyDropsImpliedFalseLiteral(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, -3)) // under ¬1, propagates ¬3
	addLearntAttached(s, 1, 2, 3)
	if !s.vivifyPass() {
		t.Fatal("vivification reported no change")
	}
	c := s.learnts[0]
	if got := s.ca.size(c); got != 2 {
		t.Fatalf("vivified clause size = %d, want 2", got)
	}
	if s.ca.has(c, cnf.PosLit(3)) {
		t.Fatal("redundant literal 3 survived vivification")
	}
	if s.stats.VivifiedClauses != 1 {
		t.Fatalf("VivifiedClauses = %d, want 1", s.stats.VivifiedClauses)
	}
	s.recountTiers() // vivifyPass alone skips inprocess()'s closing recount
	checkInvariants(t, s)
}

func TestVivifyConflictTruncatesClause(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2, 4))
	s.AddClause(cnf.NewClause(1, 2, -4)) // ¬1∧¬2 propagates 4 and ¬4: conflict
	addLearntAttached(s, 1, 2, 3)
	if !s.vivifyPass() {
		t.Fatal("vivification reported no change")
	}
	c := s.learnts[0]
	if got := s.ca.size(c); got != 2 {
		t.Fatalf("vivified clause size = %d, want 2 (truncated prefix)", got)
	}
	if s.ca.has(c, cnf.PosLit(3)) {
		t.Fatal("literal beyond the conflicting prefix survived")
	}
	if s.decisionLevel() != 0 {
		t.Fatalf("vivification left decision level %d", s.decisionLevel())
	}
	s.recountTiers()
	checkInvariants(t, s)
}

// aggressiveInprocessOptions triggers every pass at every restart, with
// restarts nearly every conflict, so even tiny formulas exercise the code.
func aggressiveInprocessOptions() Options {
	o := DefaultOptions()
	o.EnableInprocessing()
	o.InprocessPeriod = 1
	o.RestartFirst = 2
	o.RestartJitter = 0
	return o
}

// TestCrossValidateInprocess is the inprocessing differential test: with
// every pass firing at almost every conflict, verdicts must still match the
// brute-force oracle.
func TestCrossValidateInprocess(t *testing.T) {
	crossValidate(t, "inprocess", aggressiveInprocessOptions(), 400)
}

// TestInprocessProofVerifies checks that a DRUP trace containing
// inprocessing-derived additions and deletions still verifies against the
// original formula.
func TestInprocessProofVerifies(t *testing.T) {
	f := pigeonhole(6)
	o := aggressiveInprocessOptions()
	var proof bytes.Buffer
	s := New(o)
	s.SetProofWriter(&proof)
	s.AddFormula(f)
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("status = %v, want UNSAT", r.Status)
	}
	if s.stats.SubsumedClauses+s.stats.StrengthenedLits+s.stats.VivifiedClauses == 0 {
		t.Fatal("inprocessing never fired; the proof test is vacuous")
	}
	res, err := drup.Check(f, &proof)
	if err != nil {
		t.Fatalf("proof rejected: %v", err)
	}
	if !res.EmptyDerived {
		t.Fatal("empty clause not derived")
	}
	if res.UnknownDeletions != 0 {
		t.Fatalf("%d deletion lines did not match a live clause", res.UnknownDeletions)
	}
}

// TestInprocessKeepsSolverReusable runs an incremental sequence with
// inprocessing enabled: solve, add clauses, solve again under assumptions.
func TestInprocessKeepsSolverReusable(t *testing.T) {
	o := aggressiveInprocessOptions()
	s := New(o)
	s.AddFormula(pigeonhole(5))
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("first solve: %v", r.Status)
	}
	// The solver is level-0 UNSAT now; a fresh one checks SAT reuse.
	s2 := New(o)
	s2.AddClause(cnf.NewClause(1, 2))
	s2.AddClause(cnf.NewClause(-1, 3))
	if r := s2.Solve(); r.Status != StatusSat {
		t.Fatalf("sat solve: %v", r.Status)
	}
	s2.AddClause(cnf.NewClause(-3, -2))
	r := s2.SolveAssuming([]cnf.Lit{cnf.PosLit(1), cnf.PosLit(2)})
	if r.Status != StatusUnsat {
		t.Fatalf("assuming 1,2 after adding (-3 -2): %v", r.Status)
	}
	checkInvariants(t, s2)
}
