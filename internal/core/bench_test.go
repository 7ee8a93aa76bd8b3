package core

import (
	"testing"

	"berkmin/internal/cnf"
)

// BenchmarkPropagate measures steady-state Boolean constraint propagation
// over the flat clause arena: one op asserts a decision whose implication
// chain assigns ~2000 variables through binary and ternary clauses, then
// backtracks. After the first iteration every watch list and the trail are
// at capacity, so the loop must report 0 allocs/op — the CI bench job
// gates on this (see cmd/benchguard).
func BenchmarkPropagate(b *testing.B) {
	runPropagateChain(b, mixedChain(DefaultOptions()), false, cnf.PosLit(1))
}

// BenchmarkPropagateDeciders runs BenchmarkPropagate's chain under each
// decider that keeps a pick heap, plus one onConflict per op before the
// backtrack, so the heap deciders' backtrack path and LRB's stamping and
// reward folding are timed. Also gated at 0 allocs/op.
func BenchmarkPropagateDeciders(b *testing.B) {
	s3 := DefaultOptions()
	s3.OptimizedGlobalPick = true
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"berkmin-s3", s3},
		{"evsids", EvsidsOptions()},
		{"lrb", LrbOptions()},
	} {
		b.Run(tc.name, func(b *testing.B) { runPropagateChain(b, mixedChain(tc.opt), true, cnf.PosLit(1)) })
	}
}

// BenchmarkPropagateLong times the long-clause watch path that
// BenchmarkPropagate's binary-dominated chain barely reaches: one op
// asserts x1 and x2 at one decision level, and the ternary clauses
// (¬x[i-2] ∨ ¬x[i-1] ∨ x[i]) imply the other variables in turn. The
// binary tier is empty, so every implication visits a watch list and
// loads its clause from the arena. Gated at 0 allocs/op like
// BenchmarkPropagate.
func BenchmarkPropagateLong(b *testing.B) {
	s := New(DefaultOptions())
	for i := 3; i <= chainLen; i++ {
		s.AddClause(cnf.NewClause(-(i - 2), -(i - 1), i))
	}
	if s.stats.BinClauses != 0 {
		b.Fatalf("%d binary clauses, want an empty binary tier", s.stats.BinClauses)
	}
	runPropagateChain(b, s, false, cnf.PosLit(1), cnf.PosLit(2))
}

// chainLen is the number of variables the propagate benchmarks' chains
// assign per op.
const chainLen = 2000

// mixedChain returns a solver loaded with BenchmarkPropagate's chain:
// binary implications x[i] → x[i+1], plus ternary clauses for watch
// traffic.
func mixedChain(opt Options) *Solver {
	s := New(opt)
	for i := 1; i < chainLen; i++ {
		s.AddClause(cnf.NewClause(-i, i+1)) // implication chain
	}
	for i := 1; i+2 < chainLen; i += 3 {
		s.AddClause(cnf.NewClause(-i, i+1, i+2)) // ternary watch traffic
	}
	return s
}

// runPropagateChain times one op: assert the heads of s's implication
// chain at a new decision level, propagate it over all chainLen variables,
// optionally report a conflict to the decider, and backtrack to level 0.
func runPropagateChain(b *testing.B, s *Solver, conflict bool, heads ...cnf.Lit) {
	run := func() {
		s.newDecisionLevel()
		for _, l := range heads {
			s.enqueue(l, refUndef)
		}
		if s.propagate() != refUndef {
			b.Fatal("unexpected conflict")
		}
		if len(s.trail) < chainLen {
			b.Fatalf("chain only propagated %d assignments", len(s.trail))
		}
		if conflict {
			s.dec.onConflict()
		}
		s.cancelUntil(0)
	}
	run() // reach steady state: trail and watch lists at final capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkSolve runs a full CDCL search (conflicts, learning, database
// management, arena GC) on an unsatisfiable pigeonhole instance. Solver
// construction and clause loading are part of the measured op, so the
// number is end-to-end; the regression gate allows 20% headroom.
func BenchmarkSolve(b *testing.B) {
	f := pigeonhole(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(DefaultOptions())
		s.AddFormula(f)
		if r := s.Solve(); r.Status != StatusUnsat {
			b.Fatalf("status = %v, want UNSAT", r.Status)
		}
	}
}

// BenchmarkInprocess measures one steady-state inprocessing pass: after
// the first call has simplified what it can and the scratch buffers have
// reached capacity, a pass over an already-clean database must allocate
// nothing (the CI bench job gates allocs/op like BenchmarkPropagate).
func BenchmarkInprocess(b *testing.B) {
	o := InprocessingOptions()
	s := New(o)
	const n = 400
	for i := 1; i+2 < n; i++ {
		s.AddClause(cnf.NewClause(-i, i+1, i+2))
	}
	for i := 1; i+40 < n; i += 7 {
		s.AddClause(cnf.NewClause(i, -(i + 20), i+40))
	}
	base := 1
	for i := 0; i < 64; i++ {
		mkLearnt(s, base, 4+i%9, int64(i))
		base += 4 + i%9
	}
	s.inprocess() // reach steady state: database simplified, scratch at capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.inprocess()
	}
}

// BenchmarkSolveInprocess is the end-to-end inprocessing benchmark: the
// same pigeonhole solve as BenchmarkSolve with every inprocessing pass
// enabled, so the cost of subsumption, strengthening and vivification at
// restart boundaries is perf-gated alongside the plain engine.
func BenchmarkSolveInprocess(b *testing.B) {
	f := pigeonhole(7)
	o := InprocessingOptions()
	o.InprocessPeriod = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(o)
		s.AddFormula(f)
		if r := s.Solve(); r.Status != StatusUnsat {
			b.Fatalf("status = %v, want UNSAT", r.Status)
		}
	}
}

// nbTwoBench builds the §7 decision-cost workload: a database where every
// literal sits in a handful of binary clauses (what nb_two counts) and in
// several 8-literal clauses (what the pre-specialization scan had to wade
// through to find them). Nothing is assigned, so every partner walk runs
// to completion.
func nbTwoBench() *Solver {
	s := New(DefaultOptions())
	const n = 2000
	for i := 1; i <= n; i++ {
		s.AddClause(cnf.NewClause(i, i%n+1))
		s.AddClause(cnf.NewClause(-i, (i+1)%n+1))
	}
	for i := 1; i <= n; i++ {
		xs := make([]int, 8)
		for k := range xs {
			xs[k] = (i+k*37)%n + 1
		}
		s.AddClause(cnf.NewClause(xs...))
	}
	return s
}

// nbTwoBatch is the number of variables (two queries each) per benchmark
// op in BenchmarkNbTwo/BenchmarkNbTwoScan. A single query sits at
// nanosecond scale, where the benchguard speed gate's absolute jitter
// slack would dwarf a real regression; batching moves the op to a scale
// the gate can police. Divide ns/op by 2*nbTwoBatch for the per-query
// cost.
const nbTwoBatch = 64

// BenchmarkNbTwo measures the binary-tier nb_two cost function: an O(1)
// counter lookup plus one walk over binary-partner literals per query
// (decide.go). Compare against BenchmarkNbTwoScan, the pre-specialization
// implementation — the CI baseline tracks both so the gap is visible in
// every BENCH report.
func BenchmarkNbTwo(b *testing.B) {
	s := nbTwoBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < nbTwoBatch; k++ {
			v := cnf.Var((i*nbTwoBatch+k)%s.nVars + 1)
			s.nbTwo(cnf.PosLit(v))
			s.nbTwo(cnf.NegLit(v))
		}
	}
}

// BenchmarkNbTwoScan is the reference cost of the same queries under the
// old occurrence-list scan (nbTwoScan, kept in the test suite as the
// semantic baseline): every clause containing the literal is loaded from
// the arena and re-classified on every query.
func BenchmarkNbTwoScan(b *testing.B) {
	s := nbTwoBench()
	occ := buildOcc(s)
	thr := s.opt.NbTwoThreshold
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < nbTwoBatch; k++ {
			v := cnf.Var((i*nbTwoBatch+k)%s.nVars + 1)
			nbTwoScan(s, occ, cnf.PosLit(v), thr)
			nbTwoScan(s, occ, cnf.NegLit(v), thr)
		}
	}
}

// BenchmarkReduceDB measures one steady-state tiered cleaning pass over a
// 3000-clause learnt database spread across all three tiers: the partition
// walk (touch-mark bookkeeping, TIER2 demotion checks) plus the LOCAL
// activity sort. The LOCAL clauses are protect-marked so the sorted
// candidates survive every pass — the database reaches a fixed point and
// the op must report 0 allocs (the CI bench job gates this, like
// BenchmarkPropagate).
func BenchmarkReduceDB(b *testing.B) {
	o := TieredOptions()
	s := New(o)
	base := 1
	var mids []clauseRef
	for i := 0; i < 3000; i++ {
		c := mkLearnt(s, base, 5+i%8, int64(i%64))
		base += s.ca.size(c)
		switch i % 3 {
		case 0:
			s.ca.setGlue(c, 2)
			s.ca.setTier(c, tierCore)
		case 1:
			s.ca.setGlue(c, 5)
			s.ca.setTier(c, tierMid)
			mids = append(mids, c)
		default:
			s.ca.setGlue(c, 5+i%8)
			s.ca.setTier(c, tierLocal)
			s.ca.setProtect(c)
		}
	}
	s.recountTiers()
	s.tieredTarget = 0
	s.reduceTiered() // reach steady state: scratch at capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.tieredTarget = 0
		for _, c := range mids {
			s.ca.setTouched(c) // keep TIER2 resident so the pass is stable
		}
		s.reduceTiered()
	}
}

// BenchmarkAnalyzeGlue measures the learn-time glue (LBD) computation on a
// 64-literal clause spanning 23 decision levels — the stamped single pass
// conflict analysis runs per learnt clause and per reused antecedent. Must
// be 0 allocs/op (glueSeen is preallocated alongside the variables).
func BenchmarkAnalyzeGlue(b *testing.B) {
	s := New(TieredOptions())
	const n = 64
	s.ensureVars(n)
	lits := make([]cnf.Lit, n)
	for i := 1; i <= n; i++ {
		lits[i-1] = cnf.PosLit(cnf.Var(i))
		s.vlevel[i] = int32(i % 23)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := s.computeGlue(lits); g != 23 {
			b.Fatalf("glue = %d, want 23", g)
		}
	}
}

// BenchmarkSolveSat exercises the satisfiable path (model extraction, no
// level-0 empty clause) on a random 3-SAT formula below the phase
// transition.
func BenchmarkSolveSat(b *testing.B) {
	f := cnf.New(150)
	rng := newXorshift(42)
	for i := 0; i < 500; i++ {
		var c cnf.Clause
		for k := 0; k < 3; k++ {
			v := cnf.Var(rng.intn(150) + 1)
			c = append(c, cnf.MkLit(v, rng.coin()))
		}
		f.Add(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(DefaultOptions())
		s.AddFormula(f)
		if r := s.Solve(); r.Status == StatusUnknown {
			b.Fatal("unexpected UNKNOWN")
		}
	}
}

// decideBenchSolver builds a solver with enough clause structure that every
// polarity rule (nb_two counts, phases, literal counters) has real data,
// without any search having run.
func decideBenchSolver(opt Options, n int) *Solver {
	s := New(opt)
	for i := 1; i < n; i++ {
		s.AddClause(cnf.NewClause(-i, i+1))
	}
	for i := 1; i+2 < n; i += 3 {
		s.AddClause(cnf.NewClause(-i, i+1, i+2))
	}
	return s
}

// BenchmarkDecide measures the full branching descent of every decider
// family: one op picks variables (without propagation) until the formula is
// fully assigned, then backtracks to level 0. chaff-scan is the paper's
// O(nVars) literal-counter scan; chaff-heap routes the same heuristic
// through the activity heap (Options.OptimizedGlobalPick) — the before /
// after pair for that optimization. The heap-backed deciders must report 0
// allocs/op at steady state.
func BenchmarkDecide(b *testing.B) {
	const n = 512
	s3 := DefaultOptions()
	s3.OptimizedGlobalPick = true
	chaffHeap := ChaffOptions()
	chaffHeap.OptimizedGlobalPick = true
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"berkmin", DefaultOptions()},
		{"berkmin-heap", s3},
		{"chaff-scan", ChaffOptions()},
		{"chaff-heap", chaffHeap},
		{"evsids", EvsidsOptions()},
		{"lrb", LrbOptions()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := decideBenchSolver(tc.opt, n)
			descend := func() {
				assigned := 0
				for {
					l := s.dec.pick()
					if l == cnf.LitUndef {
						break
					}
					s.newDecisionLevel()
					s.enqueue(l, refUndef)
					assigned++
				}
				if assigned != n {
					b.Fatalf("descent assigned %d of %d vars", assigned, n)
				}
				s.cancelUntil(0)
			}
			descend() // steady state: trail and heaps at final capacity
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				descend()
			}
		})
	}
}

// BenchmarkBumpDecay measures the conflict-side cost of each decider: one
// op replays an antecedent bump, a learnt-clause bump, the per-conflict
// hook and a decay pass over a 512-variable state. All three families must
// report 0 allocs/op — the CI bench job gates on this.
func BenchmarkBumpDecay(b *testing.B) {
	const n = 512
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"berkmin", DefaultOptions()},
		{"evsids", EvsidsOptions()},
		{"lrb", LrbOptions()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := decideBenchSolver(tc.opt, n)
			lits := []cnf.Lit{
				cnf.PosLit(3), cnf.NegLit(100), cnf.PosLit(257), cnf.NegLit(400),
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.dec.onAntecedent(lits)
				s.dec.onLearnt(lits, 2)
				s.dec.onConflict()
				s.dec.decay()
			}
		})
	}
}
