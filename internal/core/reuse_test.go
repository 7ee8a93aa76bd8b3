package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"berkmin/internal/cnf"
	"berkmin/internal/dpll"
	"berkmin/internal/drup"
)

// TestStatsResetSemantics pins the lifecycle contract documented on Stats:
// Reset starts a new Stats lifetime (cumulative counters zeroed, gauges
// recomputed from the surviving formula), while Clone copies the Stats
// verbatim and diverges from the clone point.
func TestStatsResetSemantics(t *testing.T) {
	o := DefaultOptions()
	o.MaxConflicts = 50 // stop mid-problem so the solver stays live across Reset
	s := New(o)
	s.AddFormula(pigeonhole(6))
	s.AddClause(cnf.NewClause(1, 2)) // one binary problem clause for the gauge

	r1 := s.Solve()
	if r1.Status != StatusUnknown {
		t.Fatalf("budgeted first solve: %v", r1.Status)
	}
	if r1.Stats.Conflicts == 0 || r1.Stats.LearntTotal == 0 {
		t.Fatalf("first solve produced no work to reset: %+v", r1.Stats)
	}

	c := s.Clone()
	if got, want := c.Stats(), s.Stats(); got.Conflicts != want.Conflicts ||
		got.Decisions != want.Decisions || got.LearntTotal != want.LearntTotal {
		t.Fatalf("Clone did not copy Stats verbatim: clone %+v, original %+v", got, want)
	}

	binBefore := s.Stats().BinClauses
	s.Reset()
	st := s.Stats()
	if st.Conflicts != 0 || st.Decisions != 0 || st.Propagations != 0 ||
		st.Restarts != 0 || st.LearntTotal != 0 || st.DeletedTotal != 0 ||
		st.GlueSum != 0 || st.Runtime != 0 || st.Skin.Total() != 0 {
		t.Fatalf("Reset did not start a fresh Stats lifetime: %+v", st)
	}
	if st.CoreLearnts != 0 || st.Tier2Learnts != 0 || st.LocalLearnts != 0 {
		t.Fatalf("learnt-tier gauges survived Reset: %+v", st)
	}
	// The binary gauge is recomputed from the surviving problem clauses, so
	// it must not exceed its pre-reset value (learnt binaries are dropped)
	// and the added binary problem clause keeps it positive.
	if st.BinClauses == 0 || st.BinClauses > binBefore {
		t.Fatalf("BinClauses gauge = %d after Reset (was %d)", st.BinClauses, binBefore)
	}

	// The original's post-Reset lifetime does not leak into the clone.
	if c.Stats().Conflicts == 0 {
		t.Fatal("resetting the original zeroed the clone's Stats")
	}

	// A reset solver re-solves the formula from scratch; cumulative counters
	// accumulate within the new lifetime exactly as in a fresh solver.
	s.opt.MaxConflicts = 0
	r2 := s.Solve()
	if r2.Status != StatusUnsat {
		t.Fatalf("post-reset solve: %v", r2.Status)
	}
	if r2.Stats.Conflicts == 0 {
		t.Fatal("post-reset solve recorded no conflicts")
	}
}

// sliceShares reports whether two slices share backing memory (by first
// element identity; both must be non-empty for a meaningful answer).
func sliceShares[T any](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// TestCloneSharesNoMutableState pins the aliasing contract: every slice a
// Clone holds — including the inner per-literal watch and occurrence lists
// — is backed by memory disjoint from the original's.
func TestCloneSharesNoMutableState(t *testing.T) {
	o := churnOptions()
	o.OptimizedGlobalPick = true
	o.RestartPostpone = true
	o.MaxConflicts = 60
	s := newChurnSolver(o)
	s.AddFormula(pigeonhole(6))
	s.Solve() // populate learnts, activities, heap, glue window

	c := s.Clone()
	if sliceShares(c.ca.data, s.ca.data) {
		t.Fatal("clone shares the clause arena")
	}
	if sliceShares(c.clauses, s.clauses) || sliceShares(c.learnts, s.learnts) {
		t.Fatal("clone shares a clause list")
	}
	if sliceShares(c.vals, s.vals) || sliceShares(c.vlevel, s.vlevel) ||
		sliceShares(c.reason, s.reason) || sliceShares(c.binReason, s.binReason) ||
		sliceShares(c.trail, s.trail) ||
		sliceShares(c.phase, s.phase) || sliceShares(c.seen, s.seen) ||
		sliceShares(c.glueSeen, s.glueSeen) || sliceShares(c.recentGlue, s.recentGlue) ||
		sliceShares(c.stats.Skin.Counts, s.stats.Skin.Counts) {
		t.Fatal("clone shares a per-variable/per-literal array")
	}
	cd, sd := bm(c), bm(s)
	if sliceShares(cd.varAct, sd.varAct) ||
		sliceShares(cd.litAct, sd.litAct) || sliceShares(cd.chaffAct, sd.chaffAct) {
		t.Fatal("clone shares a decider activity array")
	}
	if sliceShares(cd.order.heap, sd.order.heap) || sliceShares(cd.order.pos, sd.order.pos) {
		t.Fatal("clone shares the decision heap")
	}
	if cd.order.act != &cd.varAct {
		t.Fatal("clone's heap is keyed by someone else's activities")
	}
	if c.dec == s.dec {
		t.Fatal("clone shares the decider object")
	}
	if sliceShares(c.watches, s.watches) || sliceShares(c.binWatches, s.binWatches) ||
		sliceShares(c.binOcc, s.binOcc) {
		t.Fatal("clone shares an outer watch/occurrence array")
	}
	for l := range s.watches {
		if sliceShares(c.watches[l], s.watches[l]) {
			t.Fatalf("clone shares watches[%v]", cnf.Lit(l))
		}
		if sliceShares(c.binWatches[l], s.binWatches[l]) {
			t.Fatalf("clone shares binWatches[%v]", cnf.Lit(l))
		}
		if sliceShares(c.binOcc[l], s.binOcc[l]) {
			t.Fatalf("clone shares binOcc[%v]", cnf.Lit(l))
		}
	}
	// Inner lists are packed into one slab sliced at full capacity: an
	// append to any of them must reallocate, never clobber its neighbor.
	for l := range c.watches {
		if len(c.watches[l]) != cap(c.watches[l]) {
			t.Fatalf("clone watches[%v] has spare capacity %d > len %d (slab clobber risk)",
				cnf.Lit(l), cap(c.watches[l]), len(c.watches[l]))
		}
	}
	checkInvariants(t, c)
	checkInvariants(t, s)
}

// TestResetInvariants walks the full invariant harness over a reset solver
// — after a SAT solve, an UNSAT solve, and a budget-limited solve — and
// checks a reset solver reaches the same verdict as a fresh one.
func TestResetInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	formulas := []*cnf.Formula{pigeonhole(5), pigeonhole(6)}
	for i := 0; i < 3; i++ {
		f := cnf.New(20)
		for j := 0; j < 80; j++ {
			var c cnf.Clause
			for k := 0; k < 3; k++ {
				c = append(c, cnf.MkLit(cnf.Var(rng.Intn(20)+1), rng.Intn(2) == 0))
			}
			f.Add(c)
		}
		formulas = append(formulas, f)
	}
	for name, opt := range map[string]Options{
		"berkmin": DefaultOptions(),
		"tiered":  churnOptions(),
	} {
		for i, f := range formulas {
			fresh := newChurnSolver(opt)
			fresh.AddFormula(f)
			want := fresh.Solve().Status

			s := newChurnSolver(opt)
			s.AddFormula(f)
			s.Solve()
			s.Reset()
			checkInvariants(t, s)
			r := s.Solve()
			if r.Status != want {
				t.Fatalf("%s formula %d: reset solver answered %v, fresh %v", name, i, r.Status, want)
			}
			if r.Status == StatusSat && !cnf.Assignment(r.Model).Satisfies(f) {
				t.Fatalf("%s formula %d: bad model after Reset", name, i)
			}
			checkInvariants(t, s)

			// Reset mid-problem (budget-limited) — the state a query stream
			// leaves behind between queries.
			limited := opt
			limited.MaxConflicts = 30
			s2 := newChurnSolver(limited)
			s2.AddFormula(f)
			s2.Solve()
			s2.Reset()
			checkInvariants(t, s2)
			s2.opt.MaxConflicts = 0
			if got := s2.Solve().Status; got != want {
				t.Fatalf("%s formula %d: reset-after-budget answered %v, fresh %v", name, i, got, want)
			}
		}
	}
}

// TestReconfigure checks the Clone+Reconfigure portfolio seam: a clone
// reconfigured to a different engine keeps the loaded formula and learnt
// clauses, adopts the new policy state, and solves correctly.
func TestReconfigure(t *testing.T) {
	master := New(DefaultOptions())
	master.AddFormula(pigeonhole(6))

	for _, opt := range []Options{
		TieredOptions(), ChaffOptions(), LimmatOptions(),
		func() Options { o := DefaultOptions(); o.OptimizedGlobalPick = true; return o }(),
		func() Options { o := TieredOptions(); o.RestartPostpone = true; return o }(),
	} {
		opt.Seed = 42
		w := master.Clone()
		w.Reconfigure(opt)
		checkInvariants(t, w)
		if got := w.Solve().Status; got != StatusUnsat {
			t.Fatalf("reconfigured clone answered %v", got)
		}
		checkInvariants(t, w)
	}
	// The master is untouched by its clones' searches.
	if master.Stats().Conflicts != 0 {
		t.Fatal("cloned workers mutated the master's stats")
	}
	if got := master.Solve().Status; got != StatusUnsat {
		t.Fatalf("master answered %v", got)
	}
}

// TestConcurrentClones races N clones of one loaded master concurrently —
// the portfolio fan-out shape — and is the -race pin for "Clone shares no
// mutable state".
func TestConcurrentClones(t *testing.T) {
	master := New(DefaultOptions())
	master.AddFormula(pigeonhole(6))

	const n = 8
	results := make([]Status, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := master.Clone()
		opt := DefaultOptions()
		if i%2 == 1 {
			opt = TieredOptions()
		}
		opt.Seed = uint64(i + 1)
		w.Reconfigure(opt)
		wg.Add(1)
		go func(i int, w *Solver) {
			defer wg.Done()
			results[i] = w.Solve().Status
		}(i, w)
	}
	wg.Wait()
	for i, st := range results {
		if st != StatusUnsat {
			t.Fatalf("clone %d answered %v", i, st)
		}
	}
}

// TestResetProofContinuity checks that one DRUP trace spanning a Reset
// stays valid: the learnt clauses dropped by Reset get deletion lines, so
// a later UNSAT's trace still verifies against the formula.
func TestResetProofContinuity(t *testing.T) {
	var proof bytes.Buffer
	o := DefaultOptions()
	o.MaxConflicts = 25
	s := New(o)
	s.SetProofWriter(&proof)
	s.AddFormula(pigeonhole(6))
	if r := s.Solve(); r.Status != StatusUnknown {
		t.Fatalf("budgeted first solve: %v", r.Status)
	}
	s.Reset()
	s.opt.MaxConflicts = 0
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("post-reset solve: %v", r.Status)
	}
	res, err := drup.Check(pigeonhole(6), &proof)
	if err != nil {
		t.Fatalf("proof spanning a Reset failed to verify: %v", err)
	}
	if !res.EmptyDerived {
		t.Fatalf("proof spanning a Reset never derives the empty clause: %+v", res)
	}
}

// decodeFuzzFormula turns arbitrary bytes into a small CNF plus an
// assumption list, sharing the literal encoding of FuzzSolveAgainstDPLL:
// low 4 bits variable (1..8), bit 4 sign, bits 5-6 end-of-clause. Bytes
// after a 0x00 terminator become assumptions (one literal each).
func decodeFuzzFormula(data []byte) (*cnf.Formula, []cnf.Lit) {
	clausePart, assumpPart := data, []byte(nil)
	if i := bytes.IndexByte(data, 0); i >= 0 {
		clausePart, assumpPart = data[:i], data[i+1:]
	}
	f := cnf.New(8)
	var cur cnf.Clause
	for _, b := range clausePart {
		v := cnf.Var(int(b&0x0F)%8 + 1)
		cur = append(cur, cnf.MkLit(v, b&0x10 != 0))
		if b&0x60 != 0 {
			f.Add(cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		f.Add(cur)
	}
	var assumps []cnf.Lit
	for _, b := range assumpPart {
		if len(assumps) == 4 {
			break
		}
		v := cnf.Var(int(b&0x0F)%8 + 1)
		assumps = append(assumps, cnf.MkLit(v, b&0x10 != 0))
	}
	return f, assumps
}

// dpllSatUnder reports satisfiability of f with extra unit assumptions,
// via the reference DPLL solver.
func dpllSatUnder(f *cnf.Formula, assumps []cnf.Lit) bool {
	g := cnf.New(f.NumVars)
	for _, c := range f.Clauses {
		g.Add(c.Clone())
	}
	for _, a := range assumps {
		g.Add(cnf.Clause{a})
	}
	return dpll.Solve(g).Sat
}

// checkFailedAssumptions validates a failed-assumption set semantically: it
// must be a subset of the assumptions and already contradictory with the
// formula (heuristically different solvers legitimately return different
// minimal-ish subsets, so equality is the wrong check).
func checkFailedAssumptions(t *testing.T, f *cnf.Formula, assumps, failed []cnf.Lit) {
	t.Helper()
	set := make(map[cnf.Lit]bool, len(assumps))
	for _, a := range assumps {
		set[a] = true
	}
	for _, l := range failed {
		if !set[l] {
			t.Fatalf("failed assumption %v is not among the assumptions %v", l, assumps)
		}
	}
	if len(failed) > 0 && dpllSatUnder(f, failed) {
		t.Fatalf("failed-assumption set %v is not contradictory with the formula", failed)
	}
}

// FuzzCloneDifferential lockstep-checks the lifecycle paths against a fresh
// solver and the reference DPLL solver: a fresh solve, a solve on a clone
// of a loaded master, and a reset-then-resolve on that same clone must all
// agree on the verdict (and produce valid failed-assumption sets and DRUP
// proofs) for the same decoded formula and assumptions.
func FuzzCloneDifferential(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x40, 0x23, 0x05, 0x60})
	f.Add([]byte{0x01, 0x40, 0x11, 0x40, 0x00, 0x01, 0x13})
	f.Add([]byte{0x21, 0x62, 0x43, 0x00, 0x11})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		formula, assumps := decodeFuzzFormula(data)
		want := dpllSatUnder(formula, assumps)

		// Path A: fresh solver, with a DRUP proof when assumption-free.
		var proofA bytes.Buffer
		fresh := New(DefaultOptions())
		if len(assumps) == 0 {
			fresh.SetProofWriter(&proofA)
		}
		fresh.AddFormula(formula)
		ra := fresh.SolveAssuming(assumps)
		if (ra.Status == StatusSat) != want {
			t.Fatalf("fresh solver: %v, dpll sat=%v (clauses %v assumps %v)",
				ra.Status, want, formula.Clauses, assumps)
		}

		// Path B: clone of a loaded master (tiered, to vary the engine).
		master := New(TieredOptions())
		master.AddFormula(formula)
		clone := master.Clone()
		var proofB bytes.Buffer
		if len(assumps) == 0 {
			clone.SetProofWriter(&proofB)
		}
		rb := clone.SolveAssuming(assumps)
		if rb.Status != ra.Status {
			t.Fatalf("clone disagrees: %v vs fresh %v (clauses %v assumps %v)",
				rb.Status, ra.Status, formula.Clauses, assumps)
		}

		// Path C: Reset the clone and re-solve; same trace, same verdict.
		clone.Reset()
		rc := clone.SolveAssuming(assumps)
		if rc.Status != ra.Status {
			t.Fatalf("reset solver disagrees: %v vs fresh %v (clauses %v assumps %v)",
				rc.Status, ra.Status, formula.Clauses, assumps)
		}

		for _, r := range []Result{ra, rb, rc} {
			if r.Status == StatusSat {
				m := make([]bool, formula.NumVars+1)
				copy(m, r.Model)
				if !cnf.Assignment(m).Satisfies(formula) {
					t.Fatalf("bad model for %v under %v", formula.Clauses, assumps)
				}
			}
			if r.Status == StatusUnsat {
				checkFailedAssumptions(t, formula, assumps, r.FailedAssumptions)
			}
		}
		if ra.Status == StatusUnsat && len(assumps) == 0 {
			for name, p := range map[string]*bytes.Buffer{"fresh": &proofA, "clone": &proofB} {
				res, err := drup.Check(formula, bytes.NewReader(p.Bytes()))
				if err != nil || !res.EmptyDerived {
					t.Fatalf("%s proof failed: err=%v res=%+v", name, err, res)
				}
			}
		}
	})
}
