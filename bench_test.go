// Benchmarks regenerating every table of the paper's evaluation at Small
// scale (so `go test -bench=.` completes quickly). Run
// `cmd/satbench -scale medium` for the full-size reproduction: it prints
// each table with the paper's claim as a note beneath it.
package berkmin_test

import (
	"testing"
	"time"

	"berkmin/internal/bench"
	"berkmin/internal/core"
	"berkmin/internal/gen"
	"berkmin/internal/simplify"
)

var benchLimits = bench.Limits{MaxConflicts: 150_000, MaxTime: 15 * time.Second}

func benchTable(b *testing.B, n int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := bench.Table(n, bench.Small, benchLimits)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkTable1Sensitivity — §4: responsible-clause activity vs
// conflict-clause-only activity over all 12 classes.
func BenchmarkTable1Sensitivity(b *testing.B) { benchTable(b, 1) }

// BenchmarkTable2Mobility — §5: top-clause branching vs globally most
// active variable.
func BenchmarkTable2Mobility(b *testing.B) { benchTable(b, 2) }

// BenchmarkTable3SkinEffect — §6: the f(r) histogram on five hard
// instances.
func BenchmarkTable3SkinEffect(b *testing.B) { benchTable(b, 3) }

// BenchmarkTable4BranchSelection — §7: six polarity heuristics over all
// classes.
func BenchmarkTable4BranchSelection(b *testing.B) { benchTable(b, 4) }

// BenchmarkTable5Database — §8: BerkMin database management vs
// GRASP-style Limited_keeping.
func BenchmarkTable5Database(b *testing.B) { benchTable(b, 5) }

// BenchmarkTable6Comparable — BerkMin vs zChaff-like on the classes the
// paper calls comparable.
func BenchmarkTable6Comparable(b *testing.B) { benchTable(b, 6) }

// BenchmarkTable7Dominates — BerkMin vs zChaff-like with abort counts on
// Beijing/Miters/Hanoi/Fvp_unsat2.0.
func BenchmarkTable7Dominates(b *testing.B) { benchTable(b, 7) }

// BenchmarkTable8Decisions — per-instance decisions/time for both solvers.
func BenchmarkTable8Decisions(b *testing.B) { benchTable(b, 8) }

// BenchmarkTable9Database — database-size and peak ratios.
func BenchmarkTable9Database(b *testing.B) { benchTable(b, 9) }

// BenchmarkTable10Competition — the SAT-2002-style set under three solvers.
func BenchmarkTable10Competition(b *testing.B) { benchTable(b, 10) }

// --- Ablations beyond the paper's own (DESIGN.md §5) ---

func runConfigOnHardSet(b *testing.B, opt core.Options) {
	b.Helper()
	insts := bench.HardInstances(bench.Small)
	for i := 0; i < b.N; i++ {
		for _, inst := range insts {
			r := bench.RunInstance(inst, bench.Config{Name: "ablation", Opt: opt}, benchLimits)
			if r.Wrong {
				b.Fatalf("%s: wrong answer", inst.Name)
			}
		}
	}
}

// BenchmarkAblationYoungFraction varies the young-zone size (paper: 15/16).
func BenchmarkAblationYoungFraction(b *testing.B) {
	for _, frac := range []struct {
		name     string
		num, den int
	}{{"1_16", 1, 16}, {"1_2", 1, 2}, {"15_16", 15, 16}} {
		b.Run(frac.name, func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.YoungFracNum, opt.YoungFracDen = frac.num, frac.den
			runConfigOnHardSet(b, opt)
		})
	}
}

// BenchmarkAblationRestart compares restart policies (paper: fixed ~550,
// "close to random").
func BenchmarkAblationRestart(b *testing.B) {
	for _, pol := range []struct {
		name string
		set  func(*core.Options)
	}{
		{"fixed550", func(o *core.Options) { o.Restart = core.RestartFixed; o.RestartFirst = 550 }},
		{"geometric", func(o *core.Options) { o.Restart = core.RestartGeometric; o.RestartFirst = 100 }},
		{"luby", func(o *core.Options) { o.Restart = core.RestartLuby; o.RestartFirst = 64 }},
		{"never", func(o *core.Options) { o.Restart = core.RestartNever }},
	} {
		b.Run(pol.name, func(b *testing.B) {
			opt := core.DefaultOptions()
			pol.set(&opt)
			runConfigOnHardSet(b, opt)
		})
	}
}

// BenchmarkAblationAging varies the activity decay (paper-era Chaff: /2
// every 100 conflicts; BerkMin default here: /4 every 100).
func BenchmarkAblationAging(b *testing.B) {
	for _, ag := range []struct {
		name    string
		period  uint64
		divisor int64
	}{{"div4_100", 100, 4}, {"div2_100", 100, 2}, {"div2_25", 25, 2}, {"div16_400", 400, 16}} {
		b.Run(ag.name, func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.AgingPeriod = ag.period
			opt.AgingDivisor = ag.divisor
			runConfigOnHardSet(b, opt)
		})
	}
}

// BenchmarkAblationNbTwoThreshold varies the nb_two cutoff (paper: 100).
func BenchmarkAblationNbTwoThreshold(b *testing.B) {
	for _, th := range []int{10, 100, 1000} {
		b.Run(map[int]string{10: "10", 100: "100", 1000: "1000"}[th], func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.NbTwoThreshold = th
			runConfigOnHardSet(b, opt)
		})
	}
}

// BenchmarkAblationGlobalPick compares the paper's naive most-active scan
// with BerkMin561's optimized strategy 3 (Remark 1).
func BenchmarkAblationGlobalPick(b *testing.B) {
	for _, m := range []struct {
		name string
		opt  bool
	}{{"naive", false}, {"strategy3", true}} {
		b.Run(m.name, func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.OptimizedGlobalPick = m.opt
			runConfigOnHardSet(b, opt)
		})
	}
}

// BenchmarkAblationMinimize measures learnt-clause minimization (a
// post-BerkMin extension, off by default).
func BenchmarkAblationMinimize(b *testing.B) {
	for _, m := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(m.name, func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.MinimizeLearnt = m.on
			runConfigOnHardSet(b, opt)
		})
	}
}

// BenchmarkAblationPhaseSaving compares the paper's §7 polarity heuristics
// with phase saving (a post-BerkMin extension, off by default).
func BenchmarkAblationPhaseSaving(b *testing.B) {
	for _, m := range []struct {
		name string
		on   bool
	}{{"paper", false}, {"phase-saving", true}} {
		b.Run(m.name, func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.PhaseSaving = m.on
			runConfigOnHardSet(b, opt)
		})
	}
}

// BenchmarkSimplifyPreprocessing measures the preprocessor (extension) on
// the hard set: simplification time plus solving the reduced formula.
func BenchmarkSimplifyPreprocessing(b *testing.B) {
	insts := bench.HardInstances(bench.Small)
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, inst := range insts {
				s := core.New(core.DefaultOptions())
				s.AddFormula(inst.Formula)
				s.Solve()
			}
		}
	})
	b.Run("simplified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, inst := range insts {
				o := simplify.Simplify(inst.Formula, simplify.DefaultOptions())
				if o.Unsat {
					continue
				}
				s := core.New(core.DefaultOptions())
				s.AddFormula(o.Formula)
				s.Solve()
			}
		}
	})
}

// --- Engine micro-benchmarks ---

// BenchmarkSolvePigeonhole7 measures raw engine throughput on a canonical
// UNSAT instance.
func BenchmarkSolvePigeonhole7(b *testing.B) {
	inst := gen.Pigeonhole(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := core.New(core.DefaultOptions())
		s.AddFormula(inst.Formula)
		if r := s.Solve(); r.Status != core.StatusUnsat {
			b.Fatal("wrong answer")
		}
	}
}

// BenchmarkSolveHanoi4 measures a satisfiable planning instance.
func BenchmarkSolveHanoi4(b *testing.B) {
	inst := gen.Hanoi(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := core.New(core.DefaultOptions())
		s.AddFormula(inst.Formula)
		if r := s.Solve(); r.Status != core.StatusSat {
			b.Fatal("wrong answer")
		}
	}
}

// BenchmarkPropagationThroughput measures BCP on a long implication chain.
func BenchmarkPropagationThroughput(b *testing.B) {
	f := gen.Parity(96, 104, 3).Formula
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := core.New(core.DefaultOptions())
		s.AddFormula(f)
		s.Solve()
	}
}
