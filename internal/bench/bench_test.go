package bench

import (
	"strings"
	"testing"
	"time"

	"berkmin/internal/core"
	"berkmin/internal/gen"
	"berkmin/internal/simplify"
)

var testLimits = Limits{MaxConflicts: 200_000, MaxTime: 30 * time.Second}

func TestRunInstance(t *testing.T) {
	inst := gen.Pigeonhole(5)
	r := RunInstance(inst, Config{Name: "berkmin", Opt: core.DefaultOptions()}, testLimits)
	if r.Status != core.StatusUnsat || r.Aborted || r.Wrong {
		t.Fatalf("unexpected result %+v", r)
	}
	if r.Instance != "hole5" || r.Family != "hole" || r.Config != "berkmin" {
		t.Fatalf("metadata wrong: %+v", r)
	}
}

// referenceRun is the bench pipeline from before RunInstance went
// through the root package's front end: simplify.Run → core.New →
// AddFormula → Solve → Extend.
func referenceRun(inst gen.Instance, opt core.Options, lim Limits) core.Result {
	f := inst.Formula
	var out *simplify.Outcome
	if lim.Simplify {
		out, _, opt.MaxTime = simplify.Run(f, simplify.DefaultOptions(), lim.MaxTime, nil)
		if out.Unsat {
			return core.Result{Status: core.StatusUnsat}
		}
		f = out.Formula
	}
	s := core.New(opt)
	s.AddFormula(f)
	r := s.Solve()
	if r.Status == core.StatusSat && out != nil {
		r.Model = out.Extend(r.Model)
	}
	return r
}

// TestRunInstanceMatchesReferencePipeline pins the paper tables' numbers
// across the move onto the front end: for every sequential configuration
// the tables run, on every small-scale instance, with preprocessing off
// and on, RunInstance reports exactly the reference pipeline's verdict,
// conflicts and decisions. The budget is a conflict count, not wall
// clock, so both sides stop at the same point.
func TestRunInstanceMatchesReferencePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eleven configurations over all classes twice")
	}
	cfgs := []Config{
		{Name: "BerkMin", Opt: core.DefaultOptions()},
		{Name: "Less_sensitivity", Opt: core.LessSensitivityOptions()},
		{Name: "Less_mobility", Opt: core.LessMobilityOptions()},
		{Name: "Sat_top", Opt: core.BranchOptions(core.PolaritySatTop)},
		{Name: "Unsat_top", Opt: core.BranchOptions(core.PolarityUnsatTop)},
		{Name: "Take_0", Opt: core.BranchOptions(core.PolarityTake0)},
		{Name: "Take_1", Opt: core.BranchOptions(core.PolarityTake1)},
		{Name: "Take_rand", Opt: core.BranchOptions(core.PolarityTakeRand)},
		{Name: "Limited_keeping", Opt: core.LimitedKeepingOptions()},
		{Name: "zChaff-like", Opt: core.ChaffOptions()},
		{Name: "limmat-like", Opt: core.LimmatOptions()},
	}
	for _, cfg := range cfgs {
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			for _, simp := range []bool{false, true} {
				lim := Limits{MaxConflicts: 5_000, Simplify: simp}
				opt := cfg.Opt
				opt.MaxConflicts = lim.MaxConflicts
				for _, cl := range Classes(Small) {
					for _, inst := range cl.Instances {
						want := referenceRun(inst, opt, lim)
						got := RunInstance(inst, cfg, lim)
						if got.Wrong || got.Status != want.Status ||
							got.Stats.Conflicts != want.Stats.Conflicts ||
							got.Stats.Decisions != want.Stats.Decisions {
							t.Errorf("%s simplify=%v: RunInstance %v (wrong=%v) %d conflicts %d decisions, reference %v %d conflicts %d decisions",
								inst.Name, simp, got.Status, got.Wrong, got.Stats.Conflicts, got.Stats.Decisions,
								want.Status, want.Stats.Conflicts, want.Stats.Decisions)
						}
					}
				}
			}
		})
	}
}

func TestRunInstanceAbort(t *testing.T) {
	inst := gen.Pigeonhole(9)
	r := RunInstance(inst, Config{Name: "berkmin", Opt: core.DefaultOptions()}, Limits{MaxConflicts: 5})
	if !r.Aborted || r.Wrong {
		t.Fatalf("expected abort, got %+v", r.Status)
	}
}

func TestRunClassAggregates(t *testing.T) {
	insts := gen.HoleSuite(3, 3)
	r := RunClass("Hole", insts, Config{Name: "berkmin", Opt: core.DefaultOptions()}, testLimits)
	if r.Instances != 3 || r.Aborted != 0 || r.Wrong != 0 {
		t.Fatalf("class result %+v", r)
	}
	if r.Conflicts == 0 || r.Time <= 0 {
		t.Fatalf("aggregation empty: %+v", r)
	}
}

func TestClassesShape(t *testing.T) {
	classes := Classes(Small)
	if len(classes) != 12 {
		t.Fatalf("want the paper's 12 classes, got %d", len(classes))
	}
	want := []string{"Hole", "Blocksworld", "Par16", "Sss1.0", "Sss1.0a",
		"Sss_sat1.0", "Fvp_unsat1.0", "Vliw_sat1.0", "Beijing", "Hanoi",
		"Miters", "Fvp_unsat2.0"}
	for i, cl := range classes {
		if cl.Name != want[i] {
			t.Fatalf("class %d = %s, want %s", i, cl.Name, want[i])
		}
		if len(cl.Instances) == 0 {
			t.Fatalf("class %s is empty", cl.Name)
		}
	}
}

func TestComparableAndDominatedPartition(t *testing.T) {
	comp := ComparableClasses(Small)
	dom := DominatedClasses(Small)
	if len(comp) != 8 || len(dom) != 4 {
		t.Fatalf("partition %d + %d, want 8 + 4", len(comp), len(dom))
	}
	seen := map[string]bool{}
	for _, c := range comp {
		seen[c.Name] = true
	}
	for _, c := range dom {
		if seen[c.Name] {
			t.Fatalf("class %s in both partitions", c.Name)
		}
	}
}

func TestHardAndDetailInstances(t *testing.T) {
	for _, sc := range []Scale{Small, Medium, Large} {
		if got := len(HardInstances(sc)); got != 5 {
			t.Fatalf("hard instances at scale %d: %d", sc, got)
		}
		if got := len(DetailInstances(sc)); got != 6 {
			t.Fatalf("detail instances at scale %d: %d", sc, got)
		}
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"xxx", "y"}},
		Notes:  []string{"n"},
	}
	s := rep.String()
	for _, want := range []string{"T\n", "xxx", "bb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in %q", want, s)
		}
	}
}

func TestTable3SkinEffect(t *testing.T) {
	rep := Table3(Small, testLimits)
	if len(rep.Rows) != 16 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if rep.Rows[0][0] != "f(0)" || rep.Rows[15][0] != "f(2000)" {
		t.Fatalf("row labels wrong: %v %v", rep.Rows[0][0], rep.Rows[15][0])
	}
	if len(rep.Header) != 6 {
		t.Fatalf("header = %v", rep.Header)
	}
}

func TestTableDispatcher(t *testing.T) {
	if _, err := Table(0, Small, testLimits); err == nil {
		t.Fatal("table 0 must error")
	}
	if _, err := Table(11, Small, testLimits); err == nil {
		t.Fatal("table 11 must error")
	}
	// Table 9 on the small scale exercises the detail path cheaply.
	rep, err := Table(9, Small, testLimits)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("table 9 rows = %d", len(rep.Rows))
	}
}

func TestTable6And7SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both solvers over several classes")
	}
	rep := Table6(Small, testLimits)
	if len(rep.Rows) != 8 {
		t.Fatalf("table 6 rows = %d", len(rep.Rows))
	}
	rep = Table7(Small, testLimits)
	if len(rep.Rows) != 4 {
		t.Fatalf("table 7 rows = %d", len(rep.Rows))
	}
	// No config may produce a wrong answer anywhere.
	for _, row := range rep.Rows {
		if strings.Contains(strings.Join(row, " "), "WRONG") {
			t.Fatalf("wrong answer in %v", row)
		}
	}
}

// TestAllConfigsAgreeOnClasses is the harness-level differential test:
// every configuration the paper measures must give the same (correct)
// verdict on every instance of the small-scale classes.
func TestAllConfigsAgreeOnClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight configurations over all classes")
	}
	cfgs := []Config{
		{Name: "berkmin", Opt: core.DefaultOptions()},
		{Name: "less_sens", Opt: core.LessSensitivityOptions()},
		{Name: "less_mob", Opt: core.LessMobilityOptions()},
		{Name: "limited", Opt: core.LimitedKeepingOptions()},
		{Name: "chaff", Opt: core.ChaffOptions()},
		{Name: "limmat", Opt: core.LimmatOptions()},
		{Name: "sat_top", Opt: core.BranchOptions(core.PolaritySatTop)},
		{Name: "take_rand", Opt: core.BranchOptions(core.PolarityTakeRand)},
	}
	for _, cl := range Classes(Small) {
		for _, inst := range cl.Instances {
			var first core.Status
			for i, cfg := range cfgs {
				r := RunInstance(inst, cfg, testLimits)
				if r.Wrong {
					t.Fatalf("%s/%s: wrong answer from %s", cl.Name, inst.Name, cfg.Name)
				}
				if r.Aborted {
					continue // budget exhaustion is allowed, disagreement is not
				}
				if i == 0 {
					first = r.Status
				} else if first != core.StatusUnknown && r.Status != first {
					t.Fatalf("%s/%s: %s says %v, %s says %v",
						cl.Name, inst.Name, cfgs[0].Name, first, cfg.Name, r.Status)
				}
			}
		}
	}
}

func TestStatsString(t *testing.T) {
	inst := gen.Pigeonhole(4)
	r := RunInstance(inst, Config{Name: "berkmin", Opt: core.DefaultOptions()}, testLimits)
	s := r.Stats.String()
	if !strings.Contains(s, "decisions=") || !strings.Contains(s, "db-ratio=") {
		t.Fatalf("stats string: %q", s)
	}
}

// TestAllTablesExecute runs every table function under a tiny conflict
// budget: rows must render even when runs abort (the paper's tables have
// aborted entries too).
func TestAllTablesExecute(t *testing.T) {
	tiny := Limits{MaxConflicts: 100, MaxTime: 5 * time.Second}
	wantRows := map[int]int{1: 13, 2: 13, 3: 16, 4: 13, 5: 13, 6: 8, 7: 4, 8: 6, 9: 6, 10: 17}
	for n := 1; n <= 10; n++ {
		rep, err := Table(n, Small, tiny)
		if err != nil {
			t.Fatalf("table %d: %v", n, err)
		}
		if len(rep.Rows) != wantRows[n] {
			t.Errorf("table %d: rows = %d, want %d", n, len(rep.Rows), wantRows[n])
		}
		if rep.String() == "" {
			t.Errorf("table %d renders empty", n)
		}
	}
}

func TestCompetitionSetScaling(t *testing.T) {
	small := CompetitionSet(Small)
	medium := CompetitionSet(Medium)
	if len(small) != len(medium) {
		t.Fatalf("set sizes differ: %d vs %d", len(small), len(medium))
	}
	// The small set must not contain the deep pipes.
	for _, inst := range small {
		if inst.Name == "5pipe_w6" || inst.Name == "6pipe_w6" {
			t.Fatalf("small set contains deep pipe %s", inst.Name)
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	c := ClassResult{Time: 1500 * time.Millisecond}
	if got := fmtTotal(c, testLimits); got != "1.500" {
		t.Fatalf("fmtTotal = %q", got)
	}
	c.Aborted = 2
	if got := fmtTotal(c, testLimits); got != ">1.500 (2)" {
		t.Fatalf("fmtTotal aborted = %q", got)
	}
}

// TestAbortedFromStopReason: Aborted must mean "a resource budget ran out",
// derived from the solver's explicit stop reason — not merely
// StatusUnknown.
func TestAbortedFromStopReason(t *testing.T) {
	cfg := Config{Name: "berkmin", Opt: core.DefaultOptions()}

	r := RunInstance(gen.Pigeonhole(9), cfg, Limits{MaxConflicts: 5})
	if !r.Aborted || r.Status != core.StatusUnknown || r.Stats.Stop != core.StopConflicts {
		t.Fatalf("budget run misreported: %+v", r)
	}

	r = RunInstance(gen.Pigeonhole(5), cfg, testLimits)
	if r.Aborted || r.Stats.Stop != core.StopNone {
		t.Fatalf("completed run misreported: aborted=%v stop=%v", r.Aborted, r.Stats.Stop)
	}
}

func TestScaleByName(t *testing.T) {
	cases := map[string]Scale{
		"small": Small, "medium": Medium, "large": Large,
	}
	for name, want := range cases {
		got, err := ParseScale(name)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseScale("gigantic"); err == nil {
		t.Error("unknown scale accepted")
	}
}
