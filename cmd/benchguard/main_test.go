package main

import (
	"os"
	"path/filepath"
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
