// Command benchguard gates CI on benchmark regressions against a git
// commit. It checks the anchor commit out in a temporary git worktree,
// runs `go test -run '^$' -bench . -benchmem` over the named packages at
// the anchor and at the working tree, in interleaved rounds on the same
// machine, writes a machine-readable report, and exits non-zero on a
// regression. Both sides run on one box minutes apart, so no file of
// recorded numbers has to be refreshed and no machine-speed factor has to
// be guessed.
//
// The rounds alternate which side goes first, so a slow stretch of the
// machine lands on both sides instead of on all of one side's samples.
// Each side gates on the median ns/op of its rounds and its worst
// allocs/op.
//
// Two gates run per benchmark present on both sides:
//
//   - allocs/op (default margin 20%, plus a half-alloc absolute slack so a
//     0-alloc anchor still tolerates measurement noise but not a real
//     allocation).
//
//   - ns/op (default margin 30%, -ns-margin 0 disables): the ratio of the
//     working tree's median to the anchor's, with 20ns of absolute slack
//     so nanosecond-scale benchmarks don't fail on scheduler jitter.
//
// A benchmark that runs at the anchor but not in the working tree fails:
// a rename or deletion is a coverage loss that must move the anchor
// deliberately. A benchmark new in the working tree is reported as new and
// not gated.
//
// Usage:
//
//	go run ./cmd/benchguard -anchor HEAD~1 ./internal/core
//	go run ./cmd/benchguard -anchor 28c79c1 -out bench-report.json ./internal/core ./internal/bench
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// rounds is the number of interleaved passes per side. With three, an
// A/A run (the same commit on both sides) on a 2-CPU box failed one
// benchmark at 1.41x: one side's samples spread from 18 to 32 µs/op. Five
// let the median absorb two slow passes.
const rounds = 5

type measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type verdict struct {
	Name   string      `json:"name"`
	Anchor measurement `json:"anchor,omitzero"` // zero when absent at the anchor
	Head   measurement `json:"head,omitzero"`   // zero when absent in the working tree
	// NsRatio is the working tree's median ns/op over the anchor's.
	NsRatio float64 `json:"ns_ratio,omitempty"`
	Status  string  `json:"status"` // ok | improved | regression | ns-regression | missing | new
}

type report struct {
	Schema      string    `json:"schema"`
	Go          string    `json:"go"`
	Anchor      string    `json:"anchor"`
	Rounds      int       `json:"rounds"`
	MarginPct   float64   `json:"margin_pct"`
	NsMarginPct float64   `json:"ns_margin_pct"`
	Pass        bool      `json:"pass"`
	Failures    []string  `json:"failures,omitempty"`
	Results     []verdict `json:"results"`
}

// benchLine matches one -benchmem result line, e.g.
//
//	BenchmarkPropagate-8   40216   28979 ns/op   0 B/op   0 allocs/op
//
// The optional throughput column (MB/s) some benchmarks emit is skipped.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+[0-9.]+ [A-Za-z/]+)??\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op`)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		anchor   = flag.String("anchor", "", "git revision to compare the working tree against (required)")
		outPath  = flag.String("out", "", "write the comparison report (JSON) here")
		margin   = flag.Float64("margin", 20, "allowed allocs/op regression, percent")
		nsMargin = flag.Float64("ns-margin", 30, "allowed ns/op regression against the anchor, percent (0 disables the speed gate)")
	)
	flag.Parse()
	if *anchor == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchguard -anchor <rev> [-out report.json] [-margin pct] [-ns-margin pct] <packages>")
		return 2
	}
	rep, err := guard(*anchor, flag.Args(), *margin, *nsMargin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		return 2
	}
	if *outPath != "" {
		data, _ := json.MarshalIndent(rep, "", "  ") // a report has no unencodable value
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			return 2
		}
	}
	printReport(rep)
	if !rep.Pass {
		for _, f := range rep.Failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		return 1
	}
	fmt.Println("benchguard: all benchmarks within the allocation and speed budgets")
	return 0
}

// guard checks rev out in a temporary worktree (removed on return, also
// after an interrupt), benchmarks pkgs on both sides and compares them.
func guard(rev string, pkgs []string, marginPct, nsMarginPct float64) (*report, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	commit, err := git(ctx, "rev-parse", "--verify", rev+"^{commit}")
	if err != nil {
		return nil, err
	}
	// The packages are named relative to the working directory, which may
	// sit below the repository root; run the anchor's pass at the same
	// place inside its worktree.
	prefix, err := git(ctx, "rev-parse", "--show-prefix")
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "benchguard-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	wt := filepath.Join(tmp, "anchor")
	if _, err := git(ctx, "worktree", "add", "--detach", wt, commit); err != nil {
		return nil, err
	}
	defer func() {
		if _, err := git(context.Background(), "worktree", "remove", "--force", wt); err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
		}
	}()
	anchorDir := filepath.Join(wt, prefix)
	anchorOut, headOut, err := measure(anchorDir, ".", func(dir string) (string, error) {
		return benchPass(ctx, dir, tmp, pkgs)
	})
	if err != nil {
		return nil, err
	}
	base, errA := parseInputs(anchorOut)
	head, errH := parseInputs(headOut)
	if err := errors.Join(errA, errH); err != nil {
		return nil, err
	}
	if len(base) == 0 && len(head) == 0 {
		return nil, fmt.Errorf("no benchmark results found in %s", strings.Join(pkgs, " "))
	}
	rep := compare(base, head, marginPct, nsMarginPct)
	rep.Anchor = commit
	return rep, nil
}

// measure runs rounds passes on each side through bench, which benchmarks
// one directory and returns the path of its output. The anchor goes first
// in even rounds and the working tree in odd ones.
func measure(anchorDir, headDir string, bench func(dir string) (string, error)) (anchorOut, headOut []string, err error) {
	dirs := [2]string{anchorDir, headDir}
	var outs [2][]string
	for r := range rounds {
		for i := range 2 {
			side := (r + i) % 2
			out, err := bench(dirs[side])
			if err != nil {
				return nil, nil, err
			}
			outs[side] = append(outs[side], out)
		}
	}
	return outs[0], outs[1], nil
}

// benchPass runs one benchmark pass over pkgs in dir, echoing its output
// to stdout and saving it to a new file in tmp, whose path it returns.
func benchPass(ctx context.Context, dir, tmp string, pkgs []string) (string, error) {
	f, err := os.CreateTemp(tmp, "pass*.out")
	if err != nil {
		return "", err
	}
	defer f.Close()
	fmt.Printf("benchguard: benchmarking in %s\n", dir)
	cmd := exec.CommandContext(ctx, "go", append([]string{"test", "-run", "^$", "-bench", ".", "-benchmem"}, pkgs...)...)
	cmd.Dir = dir
	// Interrupt rather than kill: go test then starts no further package
	// and exits when the running test binary does, leaving no orphan.
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.Stdout = io.MultiWriter(f, os.Stdout)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go test -bench in %s: %w", dir, err)
	}
	return f.Name(), f.Close()
}

// git runs a git command in the working directory and returns its trimmed
// output.
func git(ctx context.Context, args ...string) (string, error) {
	out, err := exec.CommandContext(ctx, "git", args...).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("git %s: %w\n%s", strings.Join(args, " "), err, out)
	}
	return strings.TrimSpace(string(out)), nil
}

// parseInputs reads benchmark lines from the files. A benchmark seen more
// than once (several rounds, or several packages) gates on the median of
// its ns/op samples, which one noisy pass cannot move, and on its worst
// allocs/op, so flakiness cannot hide an allocation regression.
func parseInputs(paths []string) (map[string]measurement, error) {
	measured := map[string]measurement{}
	nsSamples := map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			m := benchLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			ns, _ := strconv.ParseFloat(m[2], 64)
			bytes, _ := strconv.ParseFloat(m[3], 64)
			allocs, _ := strconv.ParseFloat(m[4], 64)
			nsSamples[m[1]] = append(nsSamples[m[1]], ns)
			if prev, dup := measured[m[1]]; dup && prev.AllocsPerOp >= allocs {
				continue
			}
			measured[m[1]] = measurement{BytesPerOp: bytes, AllocsPerOp: allocs}
		}
	}
	for n, m := range measured {
		m.NsPerOp = median(nsSamples[n])
		measured[n] = m
	}
	return measured, nil
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), sorting xs in place; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[mid-1] + xs[mid]) / 2
	}
	return xs[mid]
}

// compare gates every benchmark of the working tree (head) against the
// anchor.
func compare(anchor, head map[string]measurement, marginPct, nsMarginPct float64) *report {
	rep := &report{Schema: "berkmin-bench/3", Go: runtime.Version(), Rounds: rounds,
		MarginPct: marginPct, NsMarginPct: nsMarginPct, Pass: true}
	all := maps.Clone(anchor)
	maps.Copy(all, head)
	for _, n := range slices.Sorted(maps.Keys(all)) {
		a, inAnchor := anchor[n]
		h, inHead := head[n]
		v := verdict{Name: n}
		fail := func(status, format string, args ...any) {
			v.Status = status
			rep.Pass = false
			rep.Failures = append(rep.Failures, n+": "+fmt.Sprintf(format, args...))
		}
		switch {
		case !inHead:
			v.Anchor = a
			fail("missing", "runs at the anchor but not in the working tree")
		case !inAnchor:
			v.Head, v.Status = h, "new"
		default:
			v.Anchor, v.Head, v.Status = a, h, "ok"
			if h.AllocsPerOp < a.AllocsPerOp {
				v.Status = "improved"
			}
			if a.NsPerOp > 0 {
				v.NsRatio = h.NsPerOp / a.NsPerOp
			}
			if nsMarginPct > 0 && h.NsPerOp > a.NsPerOp*(1+nsMarginPct/100)+20 {
				fail("ns-regression", "%.0f ns/op is %.2fx the anchor's %.0f ns/op (margin %.0f%%)",
					h.NsPerOp, v.NsRatio, a.NsPerOp, nsMarginPct)
			}
			// 20% relative margin plus half an allocation of absolute
			// slack: a 0-alloc anchor fails on the first real
			// allocation, a large one tolerates rounding. Checked last,
			// so an alloc regression's status wins over a speed one.
			if h.AllocsPerOp > a.AllocsPerOp*(1+marginPct/100)+0.5 {
				fail("regression", "%.0f allocs/op exceeds the anchor's %.0f by more than %.0f%%",
					h.AllocsPerOp, a.AllocsPerOp, marginPct)
			}
		}
		rep.Results = append(rep.Results, v)
	}
	return rep
}

// printReport prints one row per benchmark and the largest ns ratio.
func printReport(rep *report) {
	fmt.Printf("benchguard: anchor %s, median of %d interleaved rounds per side\n", rep.Anchor, rep.Rounds)
	fmt.Printf("%-13s %-40s %14s %14s %7s  %s\n", "status", "benchmark", "anchor ns/op", "HEAD ns/op", "ratio", "allocs/op")
	worst := verdict{}
	for _, v := range rep.Results {
		fmt.Printf("%-13s %-40s %14.1f %14.1f %6.2fx  %.0f -> %.0f\n", v.Status, v.Name,
			v.Anchor.NsPerOp, v.Head.NsPerOp, v.NsRatio, v.Anchor.AllocsPerOp, v.Head.AllocsPerOp)
		if v.NsRatio > worst.NsRatio {
			worst = v
		}
	}
	if worst.NsRatio > 0 {
		fmt.Printf("benchguard: largest ns ratio %.2fx (%s)\n", worst.NsRatio, worst.Name)
	}
}
