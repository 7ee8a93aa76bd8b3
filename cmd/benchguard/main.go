// Command benchguard gates CI on benchmark regressions. It parses
// `go test -bench -benchmem` output, compares each benchmark against a
// checked-in baseline, writes a machine-readable report, and exits
// non-zero on a regression.
//
// Two gates run per benchmark:
//
//   - allocs/op (default margin 20%, plus a half-alloc absolute slack so a
//     0-alloc baseline still tolerates measurement noise but not a real
//     allocation). Alloc counts are deterministic for a deterministic
//     solver, so this gate is exact across machines.
//
//   - ns/op (default margin 30%, -ns-margin 0 disables). Raw wall-clock is
//     not comparable across machines — CI runners have wildly varying
//     clock speeds — so the gate is speed-normalized: the median of
//     measured/baseline ns ratios over all benchmarks estimates the
//     machine-speed factor, and a benchmark fails only when its own ratio
//     exceeds the median by more than the margin. A uniformly slower
//     runner shifts every ratio equally and passes; one hot path getting
//     slower than its peers is exactly what sticks out. (The blind spot —
//     every benchmark regressing by the same factor at once — is covered
//     by the alloc gate and by the ns trend recorded in the BENCH
//     artifacts.) A small absolute slack keeps nanosecond-scale
//     benchmarks from failing on scheduler jitter.
//
// Usage:
//
//	go test -bench 'Propagate|Solve' -benchmem -run '^$' ./... | tee bench.out
//	benchguard -baseline .github/bench-baseline.json -out BENCH_4.json bench.out
//	benchguard -baseline .github/bench-baseline.json -update bench.out   # refresh baseline
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
)

type baseline struct {
	Note       string                   `json:"note,omitempty"`
	Benchmarks map[string]baselineEntry `json:"benchmarks"`
}

type baselineEntry struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
	// NsPerOp is recorded at baseline-update time on whatever machine ran
	// it; the ns gate compares against it only after normalizing out the
	// current machine's overall speed factor.
	NsPerOp float64 `json:"ns_per_op,omitempty"`
}

type measurement struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type verdict struct {
	measurement
	BaselineAllocs *float64 `json:"baseline_allocs_per_op,omitempty"`
	BaselineNs     *float64 `json:"baseline_ns_per_op,omitempty"`
	// NsRatioNormalized is measured/baseline ns divided by the run's
	// median such ratio: ~1.0 means "kept pace with the other benchmarks
	// on this machine", >1+margin fails the ns gate.
	NsRatioNormalized float64 `json:"ns_ratio_normalized,omitempty"`
	Status            string  `json:"status"` // ok | regression | ns-regression | improved | new
}

type report struct {
	Schema      string  `json:"schema"`
	Go          string  `json:"go"`
	MarginPct   float64 `json:"margin_pct"`
	NsMarginPct float64 `json:"ns_margin_pct"`
	// SpeedFactor is the median measured/baseline ns ratio — the estimated
	// speed of this machine relative to the one that recorded the baseline
	// (0 when the ns gate did not run).
	SpeedFactor float64   `json:"speed_factor,omitempty"`
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
		baselinePath = flag.String("baseline", ".github/bench-baseline.json", "checked-in baseline file")
		outPath      = flag.String("out", "", "write the comparison report (JSON) here")
		margin       = flag.Float64("margin", 20, "allowed allocs/op regression, percent")
		nsMargin     = flag.Float64("ns-margin", 30, "allowed ns/op regression beyond the run's median drift, percent (0 disables the speed gate)")
		update       = flag.Bool("update", false, "rewrite the baseline from the measured values instead of gating")
	)
	flag.Parse()

	measured, err := parseInputs(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		return 2
	}
	if len(measured) == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no benchmark results found in input")
		return 2
	}

	if *update {
		return writeBaseline(*baselinePath, measured)
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		return 2
	}

	rep := compare(base, measured, *margin, *nsMargin)
	if *outPath != "" {
		if err := writeJSON(*outPath, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			return 2
		}
	}
	if rep.SpeedFactor > 0 {
		fmt.Printf("machine speed factor vs baseline: %.2f\n", rep.SpeedFactor)
	}
	for _, v := range rep.Results {
		extra := ""
		if v.BaselineAllocs != nil {
			extra = fmt.Sprintf(" (baseline %.0f allocs", *v.BaselineAllocs)
			if v.NsRatioNormalized > 0 {
				extra += fmt.Sprintf(", pace %.2fx", v.NsRatioNormalized)
			}
			extra += ")"
		}
		fmt.Printf("%-13s %-28s %12.0f ns/op %10.0f B/op %8.0f allocs/op%s\n",
			v.Status, v.Name, v.NsPerOp, v.BytesPerOp, v.AllocsPerOp, extra)
	}
	if !rep.Pass {
		for _, f := range rep.Failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		return 1
	}
	fmt.Println("benchguard: all benchmarks within the allocation and speed budgets")
	return 0
}

// parseInputs reads benchmark lines from the files (stdin when none). A
// benchmark seen more than once (-count > 1, or several packages) gates on
// the median of its ns/op samples, which one noisy run cannot move, and on
// its worst allocs/op, so flakiness cannot hide an allocation regression.
func parseInputs(paths []string) (map[string]measurement, error) {
	measured := map[string]measurement{}
	nsSamples := map[string][]float64{}
	readFrom := func(r io.Reader, name string) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			m := benchLine.FindStringSubmatch(sc.Text())
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
			measured[m[1]] = measurement{Name: m[1], BytesPerOp: bytes, AllocsPerOp: allocs}
		}
		if err := sc.Err(); err != nil {
			return fmt.Errorf("reading %s: %w", name, err)
		}
		return nil
	}
	if len(paths) == 0 {
		if err := readFrom(os.Stdin, "stdin"); err != nil {
			return nil, err
		}
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		err = readFrom(f, p)
		f.Close()
		if err != nil {
			return nil, err
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

func readBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &b, nil
}

// speedFactor estimates how fast this machine is relative to the one that
// recorded the baseline: the median of per-benchmark measured/baseline
// ns ratios. The median is robust to the thing being hunted — a few
// benchmarks genuinely regressing — as long as most did not.
func speedFactor(base *baseline, measured map[string]measurement) float64 {
	var ratios []float64
	for n, m := range measured {
		if be, ok := base.Benchmarks[n]; ok && be.NsPerOp > 0 && m.NsPerOp > 0 {
			ratios = append(ratios, m.NsPerOp/be.NsPerOp)
		}
	}
	return median(ratios)
}

func compare(base *baseline, measured map[string]measurement, marginPct, nsMarginPct float64) *report {
	rep := &report{Schema: "berkmin-bench/2", Go: runtime.Version(), MarginPct: marginPct, NsMarginPct: nsMarginPct, Pass: true}
	norm := 0.0
	if nsMarginPct > 0 {
		norm = speedFactor(base, measured)
		rep.SpeedFactor = norm
	}
	names := make([]string, 0, len(measured))
	for n := range measured {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := measured[n]
		v := verdict{measurement: m, Status: "new"}
		if be, ok := base.Benchmarks[n]; ok {
			b := be.AllocsPerOp
			v.BaselineAllocs = &b
			// 20% relative margin plus half an allocation of absolute
			// slack: a 0-alloc baseline fails on the first real
			// allocation, a large baseline tolerates rounding.
			allowed := b*(1+marginPct/100) + 0.5
			switch {
			case m.AllocsPerOp > allowed:
				v.Status = "regression"
				rep.Pass = false
				rep.Failures = append(rep.Failures, fmt.Sprintf(
					"%s: %.0f allocs/op exceeds baseline %.0f by more than %.0f%%",
					n, m.AllocsPerOp, b, marginPct))
			case m.AllocsPerOp < b:
				v.Status = "improved"
			default:
				v.Status = "ok"
			}
			// Speed gate: normalized drift beyond the margin, with 20ns of
			// absolute slack so nanosecond-scale benchmarks don't fail on
			// scheduler jitter.
			if norm > 0 && be.NsPerOp > 0 && m.NsPerOp > 0 {
				bn := be.NsPerOp
				v.BaselineNs = &bn
				v.NsRatioNormalized = m.NsPerOp / (bn * norm)
				if m.NsPerOp > bn*norm*(1+nsMarginPct/100)+20 {
					if v.Status != "regression" {
						v.Status = "ns-regression"
					}
					rep.Pass = false
					rep.Failures = append(rep.Failures, fmt.Sprintf(
						"%s: %.0f ns/op is %.2fx its baseline pace (machine speed factor %.2f, margin %.0f%%)",
						n, m.NsPerOp, v.NsRatioNormalized, norm, nsMarginPct))
				}
			}
		}
		rep.Results = append(rep.Results, v)
	}
	// A baseline benchmark that no longer runs is a silent coverage loss:
	// gate on it so renames update the baseline deliberately.
	for n := range base.Benchmarks {
		if _, ok := measured[n]; !ok {
			rep.Pass = false
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: in baseline but absent from benchmark output", n))
		}
	}
	return rep
}

func writeBaseline(path string, measured map[string]measurement) int {
	b := baseline{
		Note:       "allocs/op baselines for the CI bench gate; refresh with: go run ./cmd/benchguard -baseline " + path + " -update <bench output>",
		Benchmarks: map[string]baselineEntry{},
	}
	for n, m := range measured {
		b.Benchmarks[n] = baselineEntry{AllocsPerOp: m.AllocsPerOp, NsPerOp: m.NsPerOp}
	}
	if err := writeJSON(path, b); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		return 2
	}
	fmt.Printf("benchguard: wrote %d baselines to %s\n", len(b.Benchmarks), path)
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
