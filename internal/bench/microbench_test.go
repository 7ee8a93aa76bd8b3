package bench

import (
	"context"
	"testing"
	"time"

	"berkmin/internal/core"
	"berkmin/internal/cube"
	"berkmin/internal/gen"
)

// BenchmarkSolveSmoke is the CI perf-smoke benchmark: the default BerkMin
// configuration over the small-scale pigeonhole (Hole), graph (Beijing)
// and velev-style (Sss1.0) classes of the paper's evaluation. It tracks
// end-to-end solve cost — parsing-free, generator-fed — so a regression in
// propagation, analysis or database management shows up here even when the
// microbenchmarks stay flat.
// BenchmarkCubeConquer tracks the full cube-and-conquer pipeline — the
// lookahead cuber, the work-stealing conquest with clause sharing, and
// the verdict assembly — on a fixed UNSAT instance, so regressions in
// splitting cost or scheduler overhead are caught even when the core
// solve benchmarks stay flat.
func BenchmarkCubeConquer(b *testing.B) {
	inst := gen.Pigeonhole(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Loading the master stays inside the timed loop: it is part of
		// every cube-and-conquer call.
		master := core.New(core.DefaultOptions())
		master.AddFormula(inst.Formula)
		r := cube.SolveContext(context.Background(), master, cube.Options{Jobs: 2, MaxCubes: 32})
		if r.Status != core.StatusUnsat {
			b.Fatalf("status = %v", r.Status)
		}
	}
}

func BenchmarkSolveSmoke(b *testing.B) {
	classes := Classes(Small)
	want := map[string]bool{"Hole": true, "Beijing": true, "Sss1.0": true}
	cfg := Config{Name: "berkmin", Opt: core.DefaultOptions()}
	lim := Limits{MaxConflicts: 200_000, MaxTime: 30 * time.Second}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cl := range classes {
			if !want[cl.Name] {
				continue
			}
			for _, inst := range cl.Instances {
				r := RunInstance(inst, cfg, lim)
				if r.Wrong {
					b.Fatalf("%s: wrong answer %v", inst.Name, r.Status)
				}
			}
		}
	}
}
