package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// writeBench writes go test -bench output lines to a temporary file.
func writeBench(t *testing.T, lines string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "bench.out")
	if err := os.WriteFile(p, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestParseInputsMedianNs pins the ns/op rule for repeated benchmarks: the
// median of the samples, not the first line nor the line with the worst
// allocs/op.
func TestParseInputsMedianNs(t *testing.T) {
	odd := writeBench(t, `goos: linux
BenchmarkPropagate-2     100     900 ns/op     0 B/op     0 allocs/op
BenchmarkPropagate-2     100     300 ns/op     0 B/op     0 allocs/op
BenchmarkPropagate-2     100     500 ns/op     0 B/op     0 allocs/op
PASS
`)
	even := writeBench(t, `BenchmarkSolve-2   10   4000 ns/op   64 B/op   3 allocs/op
BenchmarkSolve-2   10   1000 ns/op   64 B/op   3 allocs/op
`)
	more := writeBench(t, `BenchmarkSolve-2   10   2000 ns/op   64 B/op   3 allocs/op
BenchmarkSolve-2   10   9000 ns/op   64 B/op   3 allocs/op
`)
	got, err := parseInputs([]string{odd, even, more})
	if err != nil {
		t.Fatal(err)
	}
	if ns := got["BenchmarkPropagate"].NsPerOp; ns != 500 {
		t.Errorf("Propagate ns/op = %v, want the median 500", ns)
	}
	// Samples pool across input files: 1000, 2000, 4000, 9000.
	if ns := got["BenchmarkSolve"].NsPerOp; ns != 3000 {
		t.Errorf("Solve ns/op = %v, want the even-count median 3000", ns)
	}
}

// TestParseInputsWorstAllocs pins the allocation rule: the worst allocs/op
// of any sample is kept, wherever it appears in the run.
func TestParseInputsWorstAllocs(t *testing.T) {
	p := writeBench(t, `BenchmarkClone-2   10   100 ns/op   100 B/op   20 allocs/op
BenchmarkClone-2   10   130 ns/op   300 B/op   23 allocs/op
BenchmarkClone-2   10   110 ns/op   200 B/op   21 allocs/op
BenchmarkDecide/lrb-2   10   50 ns/op   0 B/op   0 allocs/op
`)
	got, err := parseInputs([]string{p})
	if err != nil {
		t.Fatal(err)
	}
	c := got["BenchmarkClone"]
	if c.AllocsPerOp != 23 || c.BytesPerOp != 300 {
		t.Errorf("Clone = %v allocs/op, %v B/op; want the worst line's 23 and 300", c.AllocsPerOp, c.BytesPerOp)
	}
	if c.NsPerOp != 110 {
		t.Errorf("Clone ns/op = %v, want the median 110", c.NsPerOp)
	}
	if d, ok := got["BenchmarkDecide/lrb"]; !ok || d.NsPerOp != 50 {
		t.Errorf("single-sample benchmark = %+v, %v; want ns/op 50", d, ok)
	}
}

// TestCompareGates pins the margins against fabricated anchor and
// working-tree measurements: 30% + 20ns on the median ns/op ratio, 20% +
// half an allocation on allocs/op, a benchmark gone from the working tree
// fails and one new there passes ungated.
func TestCompareGates(t *testing.T) {
	anchor := map[string]measurement{
		"BenchmarkSlow":    {NsPerOp: 1000},
		"BenchmarkNoisy":   {NsPerOp: 1000},
		"BenchmarkAllocs":  {NsPerOp: 1000},
		"BenchmarkFaster":  {NsPerOp: 1000, AllocsPerOp: 10},
		"BenchmarkRenamed": {NsPerOp: 1000},
	}
	head := map[string]measurement{
		"BenchmarkSlow":   {NsPerOp: 1350},
		"BenchmarkNoisy":  {NsPerOp: 1250},
		"BenchmarkAllocs": {NsPerOp: 1000, AllocsPerOp: 1},
		"BenchmarkFaster": {NsPerOp: 500, AllocsPerOp: 12},
		"BenchmarkAdded":  {NsPerOp: 99999, AllocsPerOp: 99},
	}
	rep := compare(anchor, head, 20, 30)
	want := map[string]string{
		"BenchmarkSlow":    "ns-regression",
		"BenchmarkNoisy":   "ok",
		"BenchmarkAllocs":  "regression",
		"BenchmarkFaster":  "ok",
		"BenchmarkRenamed": "missing",
		"BenchmarkAdded":   "new",
	}
	if len(rep.Results) != len(want) {
		t.Fatalf("got %d results, want %d", len(rep.Results), len(want))
	}
	for _, v := range rep.Results {
		if v.Status != want[v.Name] {
			t.Errorf("%s: status %q, want %q", v.Name, v.Status, want[v.Name])
		}
	}
	if rep.Pass || len(rep.Failures) != 3 {
		t.Errorf("pass = %v with failures %q; want a failing report naming Slow, Allocs and Renamed", rep.Pass, rep.Failures)
	}
	if r := rep.Results[slices.IndexFunc(rep.Results, func(v verdict) bool { return v.Name == "BenchmarkSlow" })].NsRatio; r != 1.35 {
		t.Errorf("Slow ns ratio = %v, want 1.35", r)
	}

	delete(anchor, "BenchmarkRenamed")
	head["BenchmarkSlow"] = measurement{NsPerOp: 1000}
	head["BenchmarkAllocs"] = measurement{NsPerOp: 1000}
	if rep := compare(anchor, head, 20, 30); !rep.Pass {
		t.Errorf("within every margin, got failures %q", rep.Failures)
	}
}

// TestMeasureAlternates pins the interleaving: the anchor runs first in
// even rounds and the working tree in odd ones, and each pass's output is
// credited to the side that produced it.
func TestMeasureAlternates(t *testing.T) {
	var order []string
	anchorOut, headOut, err := measure("anchor", "head", func(dir string) (string, error) {
		order = append(order, dir)
		return fmt.Sprintf("%s-%d", dir, len(order)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var wantOrder, wantAnchor, wantHead []string
	for r := range rounds {
		first, second := "anchor", "head"
		if r%2 == 1 {
			first, second = second, first
		}
		wantOrder = append(wantOrder, first, second)
	}
	for i, dir := range wantOrder {
		out := fmt.Sprintf("%s-%d", dir, i+1)
		if dir == "anchor" {
			wantAnchor = append(wantAnchor, out)
		} else {
			wantHead = append(wantHead, out)
		}
	}
	if rounds < 2 || !slices.Equal(order[:4], []string{"anchor", "head", "head", "anchor"}) {
		t.Errorf("first two rounds ran %v; want the anchor first, then the working tree first", order)
	}
	if !slices.Equal(order, wantOrder) {
		t.Errorf("pass order = %v, want %v", order, wantOrder)
	}
	if !slices.Equal(anchorOut, wantAnchor) || !slices.Equal(headOut, wantHead) {
		t.Errorf("outputs = %v / %v, want %v / %v", anchorOut, headOut, wantAnchor, wantHead)
	}
}
