// Command perfbench is the repository's end-to-end benchmark. It treats the
// solver stack as a black box: it generates every input from a seed, calls
// the public API (and, for the traced decomposition, the layer entry points
// simplify.Run, cube.Split and portfolio.SolveContext), checks every answer,
// and prints one JSON result line.
//
//	perfbench --workload oneshot|incremental|serve|parallel --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1 the
// same workload runs with spans recorded around every layer call and the
// result holds the per-layer metrics and the tracing overhead. README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one named set of inputs and the calls made on them.
type workload interface {
	// setup generates the inputs from the seed and readies the program
	// (snapshots, a server); the benchmark times it as setup_s. A second
	// setup replaces the first.
	setup(r *runner, tr *tracer) error
	// pass runs the workload's fixed work once and checks every answer.
	pass(r *runner, tr *tracer) (passResult, error)
	// close releases what setup started.
	close()
	// headline names the workload's own end-to-end figures, printed in
	// the report, from the passes of an untraced run.
	headline(passes []passResult) []named
}

// passResult is what one pass measured.
type passResult struct {
	wall   time.Duration
	parts  map[string]time.Duration // named sub-sums of wall
	lat    []time.Duration          // per-operation latencies
	counts map[string]float64       // counts; exact ones repeat on sequential workloads
	extra  map[string]float64       // per-layer values the workload derives itself
}

// named is a workload's own figure, printed in the report.
type named struct {
	name  string
	value float64
	unit  string
}

// runner carries the run's settings and its correctness accounting.
type runner struct {
	seed    int64
	small   bool // small inputs, for the tests
	seconds time.Duration

	attempted, failed int
	wrong             []string
}

// op counts one attempted operation; ok=false counts it failed (a time
// limit or a refused request, never a wrong answer).
func (r *runner) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// fail records a wrong answer.
func (r *runner) fail(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

func newWorkload(name string) (workload, bool) {
	switch name {
	case "oneshot":
		return &oneshot{}, true
	case "incremental":
		return &incremental{}, true
	case "serve":
		return &serve{}, true
	case "parallel":
		return &parallel{}, true
	}
	return nil, false
}

// setupReps is how many times an untraced run sets up; setup_s is their
// median.
const setupReps = 5

func main() {
	workloadName := flag.String("workload", "", "oneshot, incremental, serve or parallel")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measuring time")
	traced := flag.Int("trace", 0, "1: record spans and report per-layer metrics")
	flag.Parse()

	w, ok := newWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	r := &runner{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}
	var res result
	var err error
	if *traced == 1 {
		out := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.jsonl", *workloadName, *seed))
		res, err = runTraced(w, r, out)
	} else {
		res, err = runPlain(w, r)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// plainRun is an untraced run: its setups and passes.
type plainRun struct {
	setups []time.Duration
	passes []passResult
}

// measure sets up setupReps times, then runs passes until the measuring
// time is spent (at least one).
func measure(w workload, r *runner) (plainRun, error) {
	var pr plainRun
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		start := time.Now()
		if err := w.setup(r, nil); err != nil {
			return pr, err
		}
		pr.setups = append(pr.setups, time.Since(start))
	}
	defer w.close()
	start := time.Now()
	for len(pr.passes) == 0 || time.Since(start) < r.seconds {
		runtime.GC()
		p, err := w.pass(r, nil)
		if err != nil {
			return pr, err
		}
		pr.passes = append(pr.passes, p)
	}
	return pr, nil
}

func runPlain(w workload, r *runner) (result, error) {
	pr, err := measure(w, r)
	if err != nil {
		return result{}, err
	}
	walls := make([]float64, len(pr.passes))
	for i, p := range pr.passes {
		walls[i] = p.wall.Seconds()
	}
	setups := make([]float64, len(pr.setups))
	for i, d := range pr.setups {
		setups[i] = d.Seconds()
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	fmt.Printf("passes=%d wall_s=%.4f setups=%d setup_s=%.4f\n", len(pr.passes), walls, len(pr.setups), setups)
	for _, n := range w.headline(pr.passes) {
		fmt.Printf("%-22s %14.4f %s\n", n.name, n.value, n.unit)
	}
	metrics := map[string]metric{
		"wall_s":      {median(walls), "s"},
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {rss, "MB"},
	}
	for _, name := range []string{"wall_s", "setup_s", "peak_rss_mb"} {
		fmt.Printf("%-22s %14.4f %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	return finish(r, metrics), nil
}

// runTraced sets up once with spans on, then alternates untraced and
// traced passes until the measuring time is spent (at least one of each).
// Per-layer values are averaged over the traced passes; the tracing
// overhead compares the median traced and untraced pass.
func runTraced(w workload, r *runner, out string) (result, error) {
	tr := newTracer()
	mark := tr.mark()
	if err := w.setup(r, tr); err != nil {
		return result{}, err
	}
	defer w.close()
	setupLayer := layerMetrics(tr.times(mark), nil)

	var plain, traced []float64
	sums := map[string]float64{}
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < r.seconds {
		runtime.GC()
		p, err := w.pass(r, nil)
		if err != nil {
			return result{}, err
		}
		plain = append(plain, p.wall.Seconds())

		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mark := tr.mark()
		p, err = w.pass(r, tr)
		if err != nil {
			return result{}, err
		}
		runtime.ReadMemStats(&after)
		traced = append(traced, p.wall.Seconds())
		lm := layerMetrics(tr.times(mark), p.counts)
		lm["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		lm["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
		for k, v := range p.extra {
			lm[k] = v
		}
		for k, v := range lm {
			sums[k] += v
		}
	}
	if err := tr.write(out); err != nil {
		return result{}, err
	}

	metrics := map[string]metric{}
	for _, l := range layers {
		v := setupLayer[l.name]
		if s, ok := sums[l.name]; ok {
			v = s / float64(len(traced))
		}
		metrics[l.name] = metric{v, l.unit}
	}
	overhead := 100 * (median(traced)/median(plain) - 1)
	metrics["trace.overhead_pct"] = metric{overhead, "%"}
	fmt.Printf("traced passes=%d untraced passes=%d spans -> %s\n", len(traced), len(plain), out)
	fmt.Printf("tracing overhead: traced pass %.4f s vs untraced %.4f s (%+.2f%%)\n",
		median(traced), median(plain), overhead)
	for _, l := range layers {
		fmt.Printf("%-26s %14.4f %s\n", l.name, metrics[l.name].Value, l.unit)
	}
	return finish(r, metrics), nil
}

func finish(r *runner, metrics map[string]metric) result {
	for _, w := range r.wrong {
		fmt.Fprintf(os.Stderr, "WRONG: %s\n", w)
	}
	return result{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
}

// median of a non-empty sample.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// medianPart is the median over passes of one named sub-sum, in seconds.
func medianPart(passes []passResult, part string) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = p.parts[part].Seconds()
	}
	return median(xs)
}

// allLatencies pools the per-operation latencies of every pass.
func allLatencies(passes []passResult) []float64 {
	var out []float64
	for _, p := range passes {
		for _, d := range p.lat {
			out = append(out, ms(d))
		}
	}
	return out
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
