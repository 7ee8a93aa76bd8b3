package core

import (
	"math"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/gen"
)

// branchingInstances is the fixed-seed workload for the branching-plane
// regression table. Small enough to run in a normal `go test`, varied enough
// to exercise every legacy code path (top-clause picks, global picks, chaff
// literal counters, tiered DB interaction).
func branchingInstances() []gen.Instance {
	return []gen.Instance{
		gen.Pigeonhole(5),
		gen.Pigeonhole(6),
		gen.Parity(16, 16, 9),
		gen.Hanoi(3),
		gen.MiterUnsat(10, 40, 81),
		gen.PipeUnsat(2, 3, 51),
	}
}

func branchingConfigs() map[string]Options {
	s3 := DefaultOptions()
	s3.OptimizedGlobalPick = true
	tierS3 := TieredOptions()
	tierS3.OptimizedGlobalPick = true
	return map[string]Options{
		"berkmin":          DefaultOptions(),
		"less-mobility":    LessMobilityOptions(),
		"less-sensitivity": LessSensitivityOptions(),
		"chaff":            ChaffOptions(),
		"limmat":           LimmatOptions(),
		"tiered":           TieredOptions(),
		"berkmin-s3":       s3,
		"tiered-s3":        tierS3,
	}
}

// TestBranchingRegressionTable pins the exact verdict AND conflict count of
// every legacy heuristic on a fixed workload. These rows were captured from
// the solver BEFORE the decider-interface refactor; any drift means the
// refactor (or a later change) altered branching behaviour, not just its
// plumbing. Update the table only for a deliberate, documented heuristic
// change.
func TestBranchingRegressionTable(t *testing.T) {
	golden := []struct {
		config    string
		instance  string
		status    Status
		conflicts uint64
	}{
		{"berkmin", "hole5", StatusUnsat, 166},
		{"berkmin", "hole6", StatusUnsat, 609},
		{"berkmin", "par16_9", StatusSat, 1},
		{"berkmin", "hanoi3", StatusSat, 13},
		{"berkmin", "miter10_40_81", StatusUnsat, 32},
		{"berkmin", "2pipe_w3", StatusUnsat, 1333},
		{"less-mobility", "hole5", StatusUnsat, 173},
		{"less-mobility", "hole6", StatusUnsat, 725},
		{"less-mobility", "par16_9", StatusSat, 1},
		{"less-mobility", "hanoi3", StatusSat, 15},
		{"less-mobility", "miter10_40_81", StatusUnsat, 36},
		{"less-mobility", "2pipe_w3", StatusUnsat, 671},
		{"less-sensitivity", "hole5", StatusUnsat, 109},
		{"less-sensitivity", "hole6", StatusUnsat, 387},
		{"less-sensitivity", "par16_9", StatusSat, 1},
		{"less-sensitivity", "hanoi3", StatusSat, 36},
		{"less-sensitivity", "miter10_40_81", StatusUnsat, 44},
		{"less-sensitivity", "2pipe_w3", StatusUnsat, 1102},
		{"chaff", "hole5", StatusUnsat, 93},
		{"chaff", "hole6", StatusUnsat, 254},
		{"chaff", "par16_9", StatusSat, 5},
		{"chaff", "hanoi3", StatusSat, 26},
		{"chaff", "miter10_40_81", StatusUnsat, 41},
		{"chaff", "2pipe_w3", StatusUnsat, 916},
		{"limmat", "hole5", StatusUnsat, 94},
		{"limmat", "hole6", StatusUnsat, 261},
		{"limmat", "par16_9", StatusSat, 5},
		{"limmat", "hanoi3", StatusSat, 26},
		{"limmat", "miter10_40_81", StatusUnsat, 41},
		{"limmat", "2pipe_w3", StatusUnsat, 886},
		{"tiered", "hole5", StatusUnsat, 147},
		{"tiered", "hole6", StatusUnsat, 648},
		{"tiered", "par16_9", StatusSat, 0},
		{"tiered", "hanoi3", StatusSat, 37},
		{"tiered", "miter10_40_81", StatusUnsat, 57},
		{"tiered", "2pipe_w3", StatusUnsat, 774},
		{"berkmin-s3", "hole5", StatusUnsat, 165},
		{"berkmin-s3", "hole6", StatusUnsat, 726},
		{"berkmin-s3", "par16_9", StatusSat, 4},
		{"berkmin-s3", "hanoi3", StatusSat, 15},
		{"berkmin-s3", "miter10_40_81", StatusUnsat, 33},
		{"berkmin-s3", "2pipe_w3", StatusUnsat, 582},
		{"tiered-s3", "hole5", StatusUnsat, 140},
		{"tiered-s3", "hole6", StatusUnsat, 653},
		{"tiered-s3", "par16_9", StatusSat, 4},
		{"tiered-s3", "hanoi3", StatusSat, 15},
		{"tiered-s3", "miter10_40_81", StatusUnsat, 47},
		{"tiered-s3", "2pipe_w3", StatusUnsat, 565},
	}

	configs := branchingConfigs()
	insts := map[string]gen.Instance{}
	for _, in := range branchingInstances() {
		insts[in.Name] = in
	}
	for _, row := range golden {
		row := row
		t.Run(row.config+"/"+row.instance, func(t *testing.T) {
			t.Parallel()
			in, ok := insts[row.instance]
			if !ok {
				t.Fatalf("unknown instance %q", row.instance)
			}
			opt, ok := configs[row.config]
			if !ok {
				t.Fatalf("unknown config %q", row.config)
			}
			s := New(opt)
			s.AddFormula(in.Formula)
			r := s.Solve()
			if r.Status != row.status {
				t.Fatalf("status = %v, want %v", r.Status, row.status)
			}
			if r.Stats.Conflicts != row.conflicts {
				t.Fatalf("conflicts = %d, want %d (branching behaviour drifted)",
					r.Stats.Conflicts, row.conflicts)
			}
		})
	}
}

// TestEvsidsLrbSolveGenSuite checks the two new deciders against instances
// with a status known by construction.
func TestEvsidsLrbSolveGenSuite(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"evsids", EvsidsOptions()},
		{"lrb", LrbOptions()},
		{"modern", ModernOptions()},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, in := range branchingInstances() {
				s := New(tc.opt)
				s.AddFormula(in.Formula)
				r := s.Solve()
				want := StatusSat
				if in.Expected == gen.ExpUnsat {
					want = StatusUnsat
				}
				if r.Status != want {
					t.Fatalf("%s: status = %v, want %v", in.Name, r.Status, want)
				}
				if r.Status == StatusSat && !cnf.Assignment(r.Model).Satisfies(in.Formula) {
					t.Fatalf("%s: model does not satisfy the formula", in.Name)
				}
				checkInvariants(t, s)
			}
		})
	}
}

// TestNormalizeBranchingParams checks that zero or out-of-range values for
// the branching knobs that remain Options are replaced by sane defaults — a
// zero AgingPeriod or an AgingDivisor below 2 would stop aging, and a
// QueryDecay outside (0, 1) would grow or flip activities between queries.
// The EVSIDS decay and LRB schedule are constants (evsids.go, lrb.go).
func TestNormalizeBranchingParams(t *testing.T) {
	var o Options
	o.normalize()
	if o.NbTwoThreshold != 100 || o.AgingPeriod != 100 || o.AgingDivisor != 2 || o.QueryDecay != 0 {
		t.Fatalf("zero knobs normalized to %+v", o)
	}
	for _, f := range []float64{-0.5, 1, 3} {
		o = Options{QueryDecay: f}
		o.normalize()
		if o.QueryDecay != 0 {
			t.Fatalf("QueryDecay %v survived normalize as %v, want 0 (off)", f, o.QueryDecay)
		}
	}
	o = Options{QueryDecay: 0.7, AgingDivisor: 4}
	o.normalize()
	if o.QueryDecay != 0.7 || o.AgingDivisor != 4 {
		t.Fatalf("in-range knobs changed by normalize: %+v", o)
	}
}

// TestEvsidsRescale forces the activity overflow path: once a bump crosses
// 1e100 every activity and the increment are scaled by 1e-100, preserving
// the heap order (uniform scaling is monotone).
func TestEvsidsRescale(t *testing.T) {
	s := New(EvsidsOptions())
	s.ensureVars(3)
	d := s.dec.(*evsidsDecider)
	d.inc = evsidsRescaleLimit / 2
	d.act[1] = evsidsRescaleLimit * 0.9
	d.act[2] = evsidsRescaleLimit * 0.1
	d.bump(1)
	if s.stats.ActivityRescales != 1 {
		t.Fatalf("ActivityRescales = %d, want 1", s.stats.ActivityRescales)
	}
	if d.act[1] >= evsidsRescaleLimit || d.inc >= evsidsRescaleLimit {
		t.Fatalf("rescale left oversized values: act=%v inc=%v", d.act[1], d.inc)
	}
	if d.act[1] <= d.act[2] {
		t.Fatal("rescale must preserve activity order")
	}
	// The relative order 1 > 2 > 3 must be intact, and nothing became 0/NaN.
	for v := cnf.Var(1); v <= 3; v++ {
		if math.IsNaN(d.act[v]) || math.IsInf(d.act[v], 0) {
			t.Fatalf("act[%d] = %v", v, d.act[v])
		}
	}
}

// TestEvsidsDecayGrowsIncrement pins the EVSIDS mechanics: the per-conflict
// onConflict hook multiplies the increment by 1/evsidsVarDecay, so later
// bumps outweigh earlier ones without touching stored activities.
func TestEvsidsDecayGrowsIncrement(t *testing.T) {
	s := New(EvsidsOptions())
	s.ensureVars(2)
	d := s.dec.(*evsidsDecider)
	d.bump(1)
	d.onConflict()
	d.bump(2)
	if want := d.act[1] * (1 / evsidsVarDecay); d.act[2] != want || d.act[2] <= d.act[1] {
		t.Fatalf("act after decayed bump = %v, want %v (> %v)", d.act[2], want, d.act[1])
	}
}

// TestLrbRewardMechanics drives the assign/unassign lifecycle by hand
// (enqueue, then cancelUntil) and checks the EMA reward: participation
// during the assignment interval, divided by the interval's conflict
// count, blended at rate alpha.
func TestLrbRewardMechanics(t *testing.T) {
	s := New(LrbOptions())
	s.ensureVars(2)
	d := s.dec.(*lrbDecider)

	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(1), refUndef)
	d.onConflict() // the first hook after the assignment stamps it
	d.onConflict()
	d.participated[1] = 1 // credited by onAntecedent/onLearnt in real runs
	alpha := d.alpha      // read after the conflicts: alpha anneals per conflict
	s.cancelUntil(0)
	want := (1 - alpha) * 0 // prior activity
	want += alpha * (1.0 / 2.0)
	if math.Abs(d.act[1]-want) > 1e-12 {
		t.Fatalf("act[1] = %v, want %v", d.act[1], want)
	}

	// A zero-conflict interval must not divide by zero or change the score.
	prev := d.act[1]
	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(1), refUndef)
	s.cancelUntil(0)
	if d.act[1] != prev {
		t.Fatalf("act[1] changed across an empty interval: %v -> %v", prev, d.act[1])
	}
}

// TestLrbAlphaAnneals checks the 0.4 -> 0.06 annealing: one step per
// conflict, clamped at the floor once the next step would cross it.
func TestLrbAlphaAnneals(t *testing.T) {
	s := New(LrbOptions())
	s.ensureVars(1)
	d := s.dec.(*lrbDecider)
	if d.alpha != lrbAlpha {
		t.Fatalf("alpha = %v, want %v at start", d.alpha, lrbAlpha)
	}
	start := d.alpha
	d.onConflict()
	if want := start - lrbAlphaStep; d.alpha != want {
		t.Fatalf("alpha = %v after one conflict, want %v", d.alpha, want)
	}
	d.alpha = lrbAlphaMin + lrbAlphaStep/2
	for i := 0; i < 3; i++ {
		d.onConflict()
	}
	if d.alpha != lrbAlphaMin {
		t.Fatalf("alpha = %v, want annealed to the %v floor", d.alpha, lrbAlphaMin)
	}
}

// TestLrbHeapTracksUnassigned pins the invariant the locality decay relies
// on: at every decider hook entry the LRB heap holds exactly the
// unassigned variables. Assignments reach LRB only at its next hook, so the
// heap is checked through hooks (onConflict, pick, onBacktrack), never
// right after enqueue.
func TestLrbHeapTracksUnassigned(t *testing.T) {
	s := New(LrbOptions())
	s.AddClause(cnf.NewClause(1, 2, 3))
	d := s.dec.(*lrbDecider)
	check := func(when string) {
		t.Helper()
		for v := cnf.Var(1); v <= 3; v++ {
			if inHeap, free := d.order.pos[v] != 0, s.assigns[v] == lUndef; inHeap != free {
				t.Fatalf("%s: var %d in heap = %v, unassigned = %v", when, v, inHeap, free)
			}
		}
	}
	check("after load")
	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(2), refUndef)
	d.onConflict()
	check("onConflict after assigning 2")
	s.newDecisionLevel()
	s.enqueue(cnf.NegLit(1), refUndef)
	if l := d.pick(); l.Var() != 3 {
		t.Fatalf("pick = %v, want the only free variable 3", l)
	}
	if len(d.order.heap) != 0 {
		t.Fatalf("heap after picking the last free variable = %v", d.order.heap)
	}
	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(3), refUndef)
	s.cancelUntil(1)
	check("backtrack to level 1")
	s.cancelUntil(0)
	check("backtrack to level 0")
}

// TestDeciderCloneIndependence extends the Clone aliasing guarantees to the
// two new deciders: the clone's decider state must be fully detached.
func TestDeciderCloneIndependence(t *testing.T) {
	t.Run("evsids", func(t *testing.T) {
		s := New(EvsidsOptions())
		s.AddClause(cnf.NewClause(1, 2))
		s.AddClause(cnf.NewClause(-1, 2))
		c := s.Clone()
		if c.dec == s.dec {
			t.Fatal("clone shares the decider object")
		}
		sd, cd := s.dec.(*evsidsDecider), c.dec.(*evsidsDecider)
		if len(sd.act) > 0 && len(cd.act) > 0 && &sd.act[0] == &cd.act[0] {
			t.Fatal("clone shares the activity slice")
		}
		if len(sd.order.heap) > 0 && len(cd.order.heap) > 0 && &sd.order.heap[0] == &cd.order.heap[0] {
			t.Fatal("clone shares the heap slice")
		}
		if cd.order.act != &cd.act {
			t.Fatal("clone's heap must point at the clone's activities")
		}
		sd.bump(1)
		if cd.act[1] == sd.act[1] {
			t.Fatal("bump in the original leaked into the clone")
		}
	})
	t.Run("lrb", func(t *testing.T) {
		s := New(LrbOptions())
		s.AddClause(cnf.NewClause(1, 2))
		s.AddClause(cnf.NewClause(-1, 2))
		c := s.Clone()
		if c.dec == s.dec {
			t.Fatal("clone shares the decider object")
		}
		sd, cd := s.dec.(*lrbDecider), c.dec.(*lrbDecider)
		if &sd.act[0] == &cd.act[0] || &sd.assignedAt[0] == &cd.assignedAt[0] || &sd.participated[0] == &cd.participated[0] {
			t.Fatal("clone shares LRB state slices")
		}
		if cd.order.act != &cd.act {
			t.Fatal("clone's heap must point at the clone's activities")
		}
		checkUnstampedClone(t, s, cnf.NegLit(1))
	})
}

// TestDeciderResetRestartsLifetime checks Reset through the decider hook:
// activities clear, and the solver still answers correctly afterwards.
func TestDeciderResetRestartsLifetime(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"evsids", EvsidsOptions()},
		{"lrb", LrbOptions()},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			in := gen.Pigeonhole(4)
			s := New(tc.opt)
			s.AddFormula(in.Formula)
			if r := s.Solve(); r.Status != StatusUnsat {
				t.Fatalf("first solve: %v", r.Status)
			}
			s.Reset()
			switch d := s.dec.(type) {
			case *evsidsDecider:
				for v, a := range d.act {
					if a != 0 {
						t.Fatalf("act[%d] = %v after Reset", v, a)
					}
				}
				if d.inc != 1 {
					t.Fatalf("inc = %v after Reset, want 1", d.inc)
				}
			case *lrbDecider:
				for v, a := range d.act {
					if a != 0 {
						t.Fatalf("act[%d] = %v after Reset", v, a)
					}
				}
				if d.conflicts != 0 {
					t.Fatalf("conflicts = %d after Reset, want 0", d.conflicts)
				}
			}
			s.AddFormula(in.Formula)
			if r := s.Solve(); r.Status != StatusUnsat {
				t.Fatalf("solve after Reset: %v", r.Status)
			}
			checkInvariants(t, s)
		})
	}
}

// TestReconfigureAcrossDeciderFamilies checks both Reconfigure paths: within
// a family the decider object survives (accumulated activities kept), across
// families a fresh decider is installed sized to the live variables.
func TestReconfigureAcrossDeciderFamilies(t *testing.T) {
	in := gen.Pigeonhole(4)

	// Same family: berkmin -> chaff keeps the berkminDecider instance.
	s := New(DefaultOptions())
	s.AddFormula(in.Formula)
	s.Solve()
	before := s.dec
	s.Reconfigure(ChaffOptions())
	if s.dec != before {
		t.Fatal("same-family Reconfigure must keep the decider instance")
	}
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("after same-family Reconfigure: %v", r.Status)
	}

	// Cross family: berkmin -> evsids -> lrb installs fresh deciders.
	s.Reconfigure(EvsidsOptions())
	if _, ok := s.dec.(*evsidsDecider); !ok {
		t.Fatalf("decider after Reconfigure(evsids) = %T", s.dec)
	}
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("after Reconfigure(evsids): %v", r.Status)
	}
	s.Reconfigure(LrbOptions())
	if _, ok := s.dec.(*lrbDecider); !ok {
		t.Fatalf("decider after Reconfigure(lrb) = %T", s.dec)
	}
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("after Reconfigure(lrb): %v", r.Status)
	}
	checkInvariants(t, s)

	// A fresh LRB decider installed mid-stream stamps the trail it inherits;
	// a unit added after its first search is stamped by its clone exactly as
	// by itself.
	live := New(DefaultOptions())
	live.AddFormula(gen.Pigeonhole(6).Formula)
	live.opt.MaxConflicts = 100
	live.Solve()
	live.Reconfigure(LrbOptions())
	live.opt.MaxConflicts = live.stats.Conflicts + 100
	live.Solve()
	checkUnstampedClone(t, live, cnf.PosLit(8))
}

// checkUnstampedClone adds the level-0 unit to s, an LRB solver, which
// stamps it only at its next hook. A clone taken before that hook must run
// the same capped search as s.
func checkUnstampedClone(t *testing.T, s *Solver, unit cnf.Lit) {
	t.Helper()
	s.AddClause(cnf.Clause{unit})
	if d := s.dec.(*lrbDecider); d.stamped >= len(s.trail) {
		t.Fatalf("the unit is already stamped (%d of %d)", d.stamped, len(s.trail))
	}
	c := s.Clone()
	var got [2]Result
	for i, x := range []*Solver{s, c} {
		x.opt.MaxConflicts = x.stats.Conflicts + 300
		got[i] = x.Solve()
	}
	o, k := got[0].Stats, got[1].Stats
	if got[0].Status != got[1].Status || o.Conflicts != k.Conflicts ||
		o.Decisions != k.Decisions || o.Propagations != k.Propagations {
		t.Fatalf("clone diverged: original %v %d/%d/%d, clone %v %d/%d/%d",
			got[0].Status, o.Conflicts, o.Decisions, o.Propagations,
			got[1].Status, k.Conflicts, k.Decisions, k.Propagations)
	}
}

// TestEvsidsReconfigureKeepsIncrement guards a subtle trap: resetting the
// bump increment to 1 while keeping large accumulated activities would
// freeze the heuristic (new bumps could never catch up). Same-family
// Reconfigure must keep inc and act together.
func TestEvsidsReconfigureKeepsIncrement(t *testing.T) {
	s := New(EvsidsOptions())
	s.AddFormula(gen.Pigeonhole(5).Formula)
	s.Solve()
	d := s.dec.(*evsidsDecider)
	incBefore := d.inc
	if incBefore <= 1 {
		t.Skip("run too short to grow the increment")
	}
	o := EvsidsOptions()
	o.RestartFirst = 200
	s.Reconfigure(o)
	if d2 := s.dec.(*evsidsDecider); d2.inc != incBefore {
		t.Fatalf("inc = %v after same-family Reconfigure, want %v kept", d2.inc, incBefore)
	}
}
