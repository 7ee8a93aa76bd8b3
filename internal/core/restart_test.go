package core

import (
	"testing"

	"berkmin/internal/cnf"
)

func TestLubySequence(t *testing.T) {
	want := []int{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1}
	for i, w := range want {
		if got := luby(i + 1); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

// lubyRef is the textbook recursive definition: luby(i) = 2^(k-1) when
// i = 2^k - 1, else luby(i - 2^(k-1) + 1) for the largest k with
// 2^(k-1) - 1 < i ≤ 2^k - 1.
func lubyRef(i int) int {
	k := 1
	for (1<<k)-1 < i {
		k++
	}
	if (1<<k)-1 == i {
		return 1 << (k - 1)
	}
	return lubyRef(i - (1<<(k-1) - 1))
}

// TestLubyGoldenValues pins the sequence two ways: against the golden
// values of the first two full subsequences (through 2^5-1 = 31, ending in
// the first 16), and against the recursive reference definition for the
// first 500 indices.
func TestLubyGoldenValues(t *testing.T) {
	golden := []int{
		1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
		1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 16,
	}
	for i, w := range golden {
		if got := luby(i + 1); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
	for i := 1; i <= 500; i++ {
		if got, want := luby(i), lubyRef(i); got != want {
			t.Fatalf("luby(%d) = %d, reference = %d", i, got, want)
		}
	}
}

func TestFixedRestartJitterBounds(t *testing.T) {
	o := DefaultOptions()
	o.RestartFirst = 100
	o.RestartJitter = 10
	s := New(o)
	for i := 0; i < 200; i++ {
		l := s.nextRestartLimit()
		if l < 90 || l > 110 {
			t.Fatalf("limit %d outside [90,110]", l)
		}
	}
}

func TestFixedRestartNoJitterIsConstant(t *testing.T) {
	o := DefaultOptions()
	o.RestartFirst = 550
	o.RestartJitter = 0
	s := New(o)
	for i := 0; i < 5; i++ {
		if l := s.nextRestartLimit(); l != 550 {
			t.Fatalf("limit = %d", l)
		}
	}
}

func TestGeometricRestartGrows(t *testing.T) {
	o := DefaultOptions()
	o.Restart = RestartGeometric
	o.RestartFirst = 100
	s := New(o)
	// New() consumed the first interval; subsequent calls keep growing.
	a := s.nextRestartLimit()
	b := s.nextRestartLimit()
	c := s.nextRestartLimit()
	if !(a < b && b < c) {
		t.Fatalf("intervals not growing: %d %d %d", a, b, c)
	}
	if b != int(float64(a)*geometricFactor) {
		t.Fatalf("factor not applied: %d then %d", a, b)
	}
}

func TestLubyRestartFollowsSequence(t *testing.T) {
	o := DefaultOptions()
	o.Restart = RestartLuby
	o.RestartFirst = 10
	s := New(o)
	// New consumed luby(1)=1 -> 10. Next: luby(2)=1, luby(3)=2, luby(4)=1.
	if l := s.nextRestartLimit(); l != 10 {
		t.Fatalf("luby limit = %d, want 10", l)
	}
	if l := s.nextRestartLimit(); l != 20 {
		t.Fatalf("luby limit = %d, want 20", l)
	}
	if l := s.nextRestartLimit(); l != 10 {
		t.Fatalf("luby limit = %d, want 10", l)
	}
}

// TestGeometricLimitMatchesClosedForm pins the carried-limit implementation
// to the closed form first·factor^i with the 1e9 clamp: the O(1)-per-restart
// field must reproduce exactly what recomputing the series from scratch did.
func TestGeometricLimitMatchesClosedForm(t *testing.T) {
	o := DefaultOptions()
	o.Restart = RestartGeometric
	o.RestartFirst = 100
	s := New(o)
	limit := 100.0 // New consumed the first interval (100)
	for i := 1; i < 150; i++ {
		limit *= geometricFactor
		want := limit
		if want > 1e9 {
			want = 1e9
		}
		if got := s.nextRestartLimit(); got != int(want) {
			t.Fatalf("interval %d = %d, want %d", i, got, int(want))
		}
	}
	// 150 doublings are deep past the clamp: the carried limit must have
	// saturated at 1e9 instead of growing without bound.
	if got := s.nextRestartLimit(); got != int(1e9) {
		t.Fatalf("clamped interval = %d, want 1e9", got)
	}
}

// TestSolveResetsRestartAndAgingIntervals is the incremental-state
// regression test: a call that aborts mid-interval must not make the next
// call restart (or age activities) almost immediately.
func TestSolveResetsRestartAndAgingIntervals(t *testing.T) {
	o := DefaultOptions()
	o.RestartFirst = 100
	o.RestartJitter = 0
	o.AgingPeriod = 100
	o.MaxConflicts = 60
	s := New(o)
	s.AddFormula(pigeonhole(6))
	r1 := s.Solve()
	if r1.Stop != StopConflicts || r1.Stats.Conflicts != 60 {
		t.Fatalf("first call: stop=%v conflicts=%d, want conflict-limit at 60", r1.Stop, r1.Stats.Conflicts)
	}
	if r1.Stats.Restarts != 0 {
		t.Fatalf("first call restarted after %d conflicts with limit 100", r1.Stats.Conflicts)
	}
	// Second call: 60 more conflicts. Without the solve-start reset, the
	// leftover sinceRestart/sinceAging of 60 reach the 100-conflict limits
	// after only 40 more conflicts and fire prematurely.
	s.opt.MaxConflicts = 120
	r2 := s.Solve()
	if r2.Stats.Conflicts != 120 {
		t.Fatalf("second call: cumulative conflicts = %d, want 120", r2.Stats.Conflicts)
	}
	if r2.Stats.Restarts != 0 {
		t.Fatalf("premature restart: aborted call leaked its partial interval (restarts=%d)", r2.Stats.Restarts)
	}
	if s.sinceRestart != 60 || s.sinceAging != 60 {
		t.Fatalf("per-interval counters not reset at solve start: sinceRestart=%d sinceAging=%d, want 60 60",
			s.sinceRestart, s.sinceAging)
	}
}

func TestRestartNeverDisablesRestarts(t *testing.T) {
	o := DefaultOptions()
	o.Restart = RestartNever
	s := New(o)
	s.AddFormula(pigeonhole(6))
	r := s.Solve()
	if r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	if r.Stats.Restarts != 0 {
		t.Fatalf("restarts = %d, want 0", r.Stats.Restarts)
	}
}

func TestRestartKeepsLevel0Assignments(t *testing.T) {
	s := New(DefaultOptions())
	s.ensureVars(4)
	s.enqueue(cnf.PosLit(1), refUndef) // level-0 fact
	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(2), refUndef)
	s.restart()
	if s.value(cnf.PosLit(1)) != lTrue {
		t.Fatal("level-0 assignment lost across restart")
	}
	if s.value(cnf.PosLit(2)) != lUndef {
		t.Fatal("decision survived restart")
	}
	if s.stats.Restarts != 1 {
		t.Fatalf("restarts = %d", s.stats.Restarts)
	}
}

// TestPostponeRestartRule unit-tests the glue-based postponement decision:
// a full window of better-than-lifetime glues postpones, a window at or
// above the lifetime average does not, an unfilled window never postpones,
// and the consecutive-postponement cap forces a restart through.
func TestPostponeRestartRule(t *testing.T) {
	o := DefaultOptions()
	o.RestartPostpone = true
	s := New(o)
	if len(s.recentGlue) != postponeWindow {
		t.Fatalf("glue window holds %d entries, want %d", len(s.recentGlue), postponeWindow)
	}
	if s.postponeRestart() {
		t.Fatal("empty window must not postpone")
	}
	// Lifetime average glue: 10 over 100 clauses.
	s.stats.LearntTotal = 100
	s.stats.GlueSum = 1000
	for i := 0; i < postponeWindow-1; i++ {
		s.noteGlue(2)
	}
	if s.postponeRestart() {
		t.Fatal("a window one short of full must not postpone")
	}
	s.noteGlue(2) // recent avg 2 < 0.8·10
	if !s.postponeRestart() {
		t.Fatal("recent avg 2 vs lifetime 10 must postpone")
	}
	s.postponeStreak = maxPostponeStreak
	if s.postponeRestart() {
		t.Fatal("streak cap must force the restart through")
	}
	s.postponeStreak = 0
	// Fill the ring with glues above the lifetime average (every noted glue
	// was a learnt clause): no postponement.
	for i := 0; i < postponeWindow; i++ {
		s.noteGlue(10)
	}
	s.stats.LearntTotal += 2 * postponeWindow
	if s.postponeRestart() {
		t.Fatal("recent avg above the lifetime average must not postpone")
	}
	// noteGlue also keeps GlueSum in step.
	if s.stats.GlueSum != 1000+postponeWindow*2+postponeWindow*10 {
		t.Fatalf("GlueSum = %d after noteGlue calls", s.stats.GlueSum)
	}
}

// TestPostponeDisabledIsFree: without RestartPostpone the ring is not even
// allocated and the rule always says restart.
func TestPostponeDisabledIsFree(t *testing.T) {
	s := New(DefaultOptions())
	if s.recentGlue != nil {
		t.Fatal("postponement ring allocated with the feature off")
	}
	s.stats.LearntTotal = 10
	s.stats.GlueSum = 100
	if s.postponeRestart() {
		t.Fatal("postponement fired while disabled")
	}
}

// TestPostponedRestartsCounted runs the full tiered configuration on an
// instance long enough to fill the window and checks the accounting: every
// due restart either restarted or was counted as postponed, and the streak
// cap kept real restarts (and their database management) coming.
func TestPostponedRestartsCounted(t *testing.T) {
	o := TieredOptions()
	o.RestartFirst = 4 // due often, so the postponement rule gets exercised
	s := New(o)
	s.AddFormula(pigeonhole(7))
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	if s.stats.Restarts == 0 {
		t.Fatal("postponement starved restarts entirely")
	}
	t.Logf("restarts=%d postponed=%d avg-glue=%.2f",
		s.stats.Restarts, s.stats.PostponedRestarts,
		float64(s.stats.GlueSum)/float64(s.stats.LearntTotal))
	checkInvariants(t, s)
}

func TestMarkPeriodProtectsClauses(t *testing.T) {
	o := DefaultOptions()
	o.MarkPeriod = 1
	s := New(o)
	base := 1
	for i := 0; i < 4; i++ {
		c := mkLearnt(s, base, 3, 0)
		base += s.ca.size(c)
	}
	s.reduceDB()
	protected := 0
	for _, c := range s.learnts {
		if s.ca.protect(c) {
			protected++
		}
	}
	if protected != 1 {
		t.Fatalf("protected = %d, want 1", protected)
	}
}
