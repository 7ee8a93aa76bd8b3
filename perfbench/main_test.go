package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"berkmin"
)

// holdoutSeed is set aside for confirming later claims; tuning used seeds
// 1 to 10.
const holdoutSeed = 1001

// onePass sets a workload up and runs one pass, failing the test on any
// error or wrong answer.
func onePass(t *testing.T, w workload, seed int64, small bool, tr *tracer) passResult {
	t.Helper()
	r := &runner{seed: seed, small: small}
	if err := w.setup(r, tr); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	p, err := w.pass(r, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.wrong) > 0 || r.failed > 0 {
		t.Fatalf("wrong answers %v, %d of %d operations failed", r.wrong, r.failed, r.attempted)
	}
	return p
}

// The sequential workloads repeat every count exactly, and the traced
// decomposition runs the same search as the untraced path.
func TestExactCountsRepeat(t *testing.T) {
	for _, name := range []string{"oneshot", "incremental"} {
		t.Run(name, func(t *testing.T) {
			fresh := func() workload { w, _ := newWorkload(name); return w }
			a := onePass(t, fresh(), 7, true, nil).counts
			b := onePass(t, fresh(), 7, true, nil).counts
			traced := onePass(t, fresh(), 7, true, newTracer()).counts
			if len(a) == 0 {
				t.Fatal("no counts")
			}
			for k, v := range a {
				if b[k] != v {
					t.Errorf("%s: %v then %v", k, v, b[k])
				}
				if traced[k] != v {
					t.Errorf("%s: untraced %v, traced %v", k, v, traced[k])
				}
			}
		})
	}
}

// The 2-worker paths are nondeterministic; their counts are reported, not
// compared.
func TestParallelCountsReported(t *testing.T) {
	p := onePass(t, &parallel{}, 7, true, newTracer())
	for _, k := range []string{"portfolio.conflicts", "cube.cubes", "cube.solved"} {
		if p.counts[k] == 0 {
			t.Errorf("%s not counted", k)
		}
	}
}

// Every serve reply agrees with the in-process pool, proofs check, and the
// server's queue and solve times become the request spans' children.
func TestServe(t *testing.T) {
	tr := newTracer()
	p := onePass(t, &serve{}, 7, true, tr)
	lm := layerMetrics(tr.times(0), p.counts)
	if lm["server.solve_ms"] <= 0 || lm["drup.check_ms"] <= 0 || lm["server.proof_kb"] <= 0 {
		t.Fatalf("serve layers not measured: %v", lm)
	}
}

// Whatever the seed, including the holdout, the hard subset stays
// search-dominated and the large subset simplify-dominated.
func TestSubsetCharacter(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size instances")
	}
	for _, seed := range []int64{1, holdoutSeed} {
		p := onePass(t, &oneshot{}, seed, false, newTracer())
		if s := p.extra["hard.search_share"]; s < 0.5 {
			t.Errorf("seed %d: search is %.2f of the hard subset", seed, s)
		}
		if s := p.extra["large.simplify_share"]; s < 0.5 {
			t.Errorf("seed %d: simplify is %.2f of the large subset", seed, s)
		}
	}
}

// A wrong verdict or model is recorded as wrong, not as a failed operation.
func TestCheckRejectsWrongAnswers(t *testing.T) {
	inst := berkmin.Pigeonhole(3)
	in := &input{name: inst.Name, formula: inst.Formula, exp: berkmin.ExpUnsat}
	r := &runner{}
	if !check(r, in, berkmin.StatusSat, make([]bool, inst.Formula.NumVars+1)) || len(r.wrong) != 1 {
		t.Fatalf("SAT on an UNSAT instance: wrong=%v", r.wrong)
	}
	in.exp = berkmin.ExpSat
	r = &runner{}
	check(r, in, berkmin.StatusSat, make([]bool, inst.Formula.NumVars+1))
	if len(r.wrong) != 1 {
		t.Fatalf("a model that violates the formula passed: wrong=%v", r.wrong)
	}
	if check(&runner{}, in, berkmin.StatusUnknown, nil) {
		t.Fatal("an unanswered solve counted as answered")
	}
}

// Self time subtracts the union of the children, counting overlaps once.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	tr.add("root", -1, 1, at(0), at(100))
	tr.add("child", 0, 1, at(10), at(40))
	tr.add("child", 0, 1, at(30), at(50))
	tr.add("child", 0, 1, at(90), at(120))
	lt := tr.times(0)
	if got := lt["root"].Self; got != 50*time.Millisecond {
		t.Fatalf("root self time %v, want 50ms", got)
	}
	if got := lt["child"]; got.Calls != 3 || got.Total != 80*time.Millisecond {
		t.Fatalf("child times %+v", got)
	}
}

// BENCHMARK.json lists exactly the metrics the runs print.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, l := range layers {
		want = append(want, l.name+" "+l.unit)
	}
	want = append(want, "trace.overhead_pct %")
	var got []string
	for _, m := range spec.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	if !equalSorted(got, want) {
		t.Errorf("per_layer %v, runs print %v", got, want)
	}
	got = nil
	for _, m := range spec.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
	}
	if want := []string{"peak_rss_mb MB", "setup_s s", "wall_s s"}; !equalSorted(got, want) {
		t.Errorf("end_to_end %v, runs print %v", got, want)
	}
}

func equalSorted(a, b []string) bool {
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
