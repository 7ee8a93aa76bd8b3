package main

import (
	"fmt"
	"math/rand"
	"time"

	"berkmin"
)

// bmcCircuit is a sequential circuit whose property first fails at a
// known depth.
type bmcCircuit struct {
	name      string
	build     func() *berkmin.SeqCircuit
	failDepth int
}

// bmcCircuits are buggy FIFO controllers, whose occupancy counter
// overflows after capacity+1 pushes, and a counter that reaches its target
// after target steps.
func bmcCircuits(small bool) []bmcCircuit {
	fifo := func(ptrBits int) bmcCircuit {
		return bmcCircuit{fmt.Sprintf("fifo%d", ptrBits),
			func() *berkmin.SeqCircuit { return berkmin.FIFO(ptrBits, true) }, 1<<ptrBits + 1}
	}
	counter := func(bits, target int) bmcCircuit {
		return bmcCircuit{fmt.Sprintf("counter%d", bits),
			func() *berkmin.SeqCircuit { return berkmin.Counter(bits, uint64(target)) }, target}
	}
	if small {
		return []bmcCircuit{fifo(2), counter(4, 6)}
	}
	return []bmcCircuit{fifo(4), fifo(5), fifo(6), counter(10, 60)}
}

// query is one assumption query; temp clauses, when present, go into a
// clause group for this query only and the query asks for an UNSAT core.
type query struct {
	assumps []int
	temp    [][]int
}

// incremental drives two in-process query streams on IncrementalOptions:
// group-driven BMC deepening (writes) and assumption queries on a
// Snapshot's Pool (reads).
type incremental struct {
	circuits []bmcCircuit
	seqs     []*berkmin.SeqCircuit
	formula  *berkmin.Formula
	snap     *berkmin.Snapshot
	queries  []query
	checked  bool // UNSAT cores have been re-solved once
}

// queryFormula is the planning formula the query streams run against. It
// is fixed, and only the queries are drawn from the seed: the cost of a
// random-assumption stream differed by up to 1.9× between blocksworld
// instances of different seeds.
func queryFormula(small bool) *berkmin.Formula {
	if small {
		return berkmin.Blocksworld(4, 0, 1).Formula
	}
	return berkmin.Blocksworld(5, 0, 2).Formula
}

// queryOptions is the incremental profile with the benchmark's time limit.
func queryOptions() berkmin.Options {
	opt := berkmin.IncrementalOptions()
	opt.MaxTime = solveLimit
	return opt
}

// queryStream draws the query stream: 3 assumption literals per query, and
// on a quarter of the queries two temporary 3-literal clauses.
func queryStream(rng *rand.Rand, numVars, n int) []query {
	lit := func() int {
		l := rng.Intn(numVars) + 1
		if rng.Intn(2) == 0 {
			l = -l
		}
		return l
	}
	qs := make([]query, n)
	for i := range qs {
		qs[i].assumps = []int{lit(), lit(), lit()}
		if rng.Intn(4) == 0 {
			qs[i].temp = [][]int{{lit(), lit(), lit()}, {lit(), lit(), lit()}}
		}
	}
	return qs
}

func (w *incremental) setup(r *runner, tr *tracer) error {
	rng := rand.New(rand.NewSource(r.seed))
	sp := tr.begin(spanGen, -1, 0)
	w.circuits = bmcCircuits(r.small)
	w.seqs = make([]*berkmin.SeqCircuit, len(w.circuits))
	for i, c := range w.circuits {
		w.seqs[i] = c.build()
	}
	w.formula = queryFormula(r.small)
	n := 400
	if r.small {
		n = 60
	}
	w.queries = queryStream(rng, w.formula.NumVars, n)
	w.checked = false
	tr.end(sp)

	sp = tr.begin(spanCapture, -1, 0)
	front := berkmin.NewWithOptions(queryOptions())
	so := berkmin.DefaultSimplifyOptions()
	front.SetSimplify(&so)
	if err := front.AddFormula(w.formula); err != nil {
		return fmt.Errorf("query formula: %w", err)
	}
	w.snap = front.Snapshot()
	tr.end(sp)
	return nil
}

func (w *incremental) close() {}

func (w *incremental) pass(r *runner, tr *tracer) (passResult, error) {
	p := passResult{parts: map[string]time.Duration{}, counts: map[string]float64{}}
	start := time.Now()
	for i, c := range w.circuits {
		if err := w.bmc(r, tr, int64(i), c, w.seqs[i], p.counts); err != nil {
			return p, err
		}
	}
	p.parts["bmc"] = time.Since(start)

	start = time.Now()
	pool := w.snap.NewPool()
	var cores []query
	for i := range w.queries {
		lat, core := w.query(r, tr, pool, int64(i), &w.queries[i], p.counts)
		p.lat = append(p.lat, lat)
		if core != nil {
			cores = append(cores, *core)
		}
	}
	ps := pool.Stats()
	p.counts["pool.hits"] = float64(ps.Hits)
	p.counts["pool.misses"] = float64(ps.Misses)
	p.counts["pool.dropped"] = float64(ps.Dropped)
	p.parts["queries"] = time.Since(start)
	p.wall = p.parts["bmc"] + p.parts["queries"]

	if !w.checked {
		w.checked = true
		w.checkCores(r, cores)
	}
	return p, nil
}

// bmc deepens one circuit until its property fails: each frame's
// transition clauses are added permanently, each depth's "some frame
// fails" disjunction goes into a clause group released when the bound
// advances.
func (w *incremental) bmc(r *runner, tr *tracer, id int64, c bmcCircuit, sc *berkmin.SeqCircuit, counts map[string]float64) error {
	root := tr.begin(spanBMC, -1, id)
	defer tr.end(root)
	u, err := sc.Unroller()
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	s := berkmin.NewWithOptions(queryOptions())
	var bads []int
	for d := 0; d <= c.failDepth; d++ {
		sp := tr.begin(spanFrame, root, id)
		bads = append(bads, u.Step().Dimacs())
		err := s.AddFormula(&berkmin.Formula{NumVars: u.NumVars(), Clauses: u.Delta()})
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s frame %d: %w", c.name, d, err)
		}

		sp = tr.begin(spanGroupAdd, root, id)
		g := s.NewClauseGroup()
		err = s.AddClauseGroup(g, bads...)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s frame %d: %w", c.name, d, err)
		}

		sp = tr.begin(spanDepthSolve, root, id)
		res := s.Solve()
		tr.end(sp)
		counts["bmc.queries"]++
		r.op(res.Status != berkmin.StatusUnknown)
		if res.Status != berkmin.StatusUnsat {
			counts["bmc.conflicts"] += float64(res.Stats.Conflicts)
		}
		switch res.Status {
		case berkmin.StatusSat:
			if d != c.failDepth {
				r.fail("%s: counterexample at depth %d, expected %d", c.name, d, c.failDepth)
			} else if !berkmin.Verify(s.ProofFormula(), res.Model) {
				r.fail("%s: counterexample model does not satisfy the unrolling", c.name)
			}
			return nil
		case berkmin.StatusUnknown:
			return nil
		}

		sp = tr.begin(spanGroupRelease, root, id)
		s.ReleaseGroup(g)
		tr.end(sp)
	}
	r.fail("%s: no counterexample by depth %d", c.name, c.failDepth)
	return nil
}

// query answers one query on a pooled solver and checks the answer. It
// returns the query's latency and, for an UNSAT answer, its core for the
// one-time re-check.
func (w *incremental) query(r *runner, tr *tracer, pool *berkmin.Pool, id int64, q *query, counts map[string]float64) (time.Duration, *query) {
	start := time.Now()
	root := tr.begin(spanQuery, -1, id)
	sp := tr.begin(spanPoolGet, root, id)
	s := pool.Get()
	tr.end(sp)

	var g berkmin.Group
	if q.temp != nil {
		sp = tr.begin(spanGroupAdd, root, id)
		g = s.NewClauseGroup()
		for _, c := range q.temp {
			if err := s.AddClauseGroup(g, c...); err != nil {
				r.fail("query %d: temp clause: %v", id, err)
			}
		}
		tr.end(sp)
	}

	sp = tr.begin(spanAssume, root, id)
	res := s.SolveAssuming(q.assumps...)
	tr.end(sp)

	var core *query
	if res.Status == berkmin.StatusUnsat {
		core = &query{assumps: berkmin.FailedAssumptions(res)}
		if q.temp != nil {
			sp = tr.begin(spanGroupCore, root, id)
			groups, lits := s.UnsatCore()
			tr.end(sp)
			core.assumps = lits
			if len(groups) > 0 {
				core.temp = q.temp
			}
		}
	}
	if q.temp != nil {
		sp = tr.begin(spanGroupRelease, root, id)
		s.ReleaseGroup(g)
		tr.end(sp)
	}
	sp = tr.begin(spanPoolPut, root, id)
	pool.Put(s)
	tr.end(sp)
	tr.end(root)
	lat := time.Since(start)

	r.op(res.Status != berkmin.StatusUnknown)
	counts["assume.queries"]++
	counts["assume.conflicts"] += float64(res.Stats.Conflicts)
	switch res.Status {
	case berkmin.StatusSat:
		if !satisfies(w.formula, res.Model, q) {
			r.fail("query %d: model violates the formula, an assumption or a temp clause", id)
		}
	case berkmin.StatusUnsat:
		counts["assume.unsat"]++
		counts["assume.failed_lits"] += float64(len(core.assumps))
		if !subset(core.assumps, q.assumps) {
			r.fail("query %d: failed assumptions %v not among %v", id, core.assumps, q.assumps)
		}
	}
	return lat, core
}

// checkCores re-solves every UNSAT core of a pass on a fresh solver: the
// core's assumptions, with the temp clauses when they are in the core,
// must be unsatisfiable on their own.
func (w *incremental) checkCores(r *runner, cores []query) {
	for i, c := range cores {
		s := w.snap.NewSolver()
		for _, cl := range c.temp {
			if err := s.AddClause(cl...); err != nil && err != berkmin.ErrSolverDead {
				r.fail("core %d: %v", i, err)
			}
		}
		if st := s.SolveAssuming(c.assumps...).Status; st != berkmin.StatusUnsat {
			r.fail("core %d (%v, %d temp clauses) re-solves %v", i, c.assumps, len(c.temp), st)
		}
	}
}

// satisfies checks a model against the formula, the query's assumptions
// and its temp clauses.
func satisfies(f *berkmin.Formula, model []bool, q *query) bool {
	if !berkmin.Verify(f, model) {
		return false
	}
	holds := func(l int) bool {
		v := l
		if v < 0 {
			v = -v
		}
		return v < len(model) && model[v] == (l > 0)
	}
	for _, a := range q.assumps {
		if !holds(a) {
			return false
		}
	}
	for _, c := range q.temp {
		ok := false
		for _, l := range c {
			ok = ok || holds(l)
		}
		if !ok {
			return false
		}
	}
	return true
}

func subset(xs, of []int) bool {
	for _, x := range xs {
		found := false
		for _, y := range of {
			found = found || x == y
		}
		if !found {
			return false
		}
	}
	return true
}

func (w *incremental) headline(passes []passResult) []named {
	lat := allLatencies(passes)
	return []named{
		{"bmc_s", medianPart(passes, "bmc"), "s"},
		{"query_p50_ms", quantile(lat, 0.5), "ms"},
		{"query_p99_ms", quantile(lat, 0.99), "ms"},
		{"query_samples", float64(len(lat)), "count"},
	}
}
