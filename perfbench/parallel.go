package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"berkmin"
	"berkmin/internal/cube"
	"berkmin/internal/portfolio"
	"berkmin/internal/simplify"
)

// parallelJobs is the worker count of both parallel paths: one per CPU of
// the 2-CPU machine the baseline was taken on.
const parallelJobs = 2

// parallel solves the oneshot hard subset with the 2-worker portfolio and
// then with 2-worker cube-and-conquer, from DIMACS text as the CLI's -jobs
// and -cube modes do. Both paths are nondeterministic in search, so only
// sums over the whole subset are reported.
type parallel struct {
	inputs []input
}

func (w *parallel) setup(r *runner, tr *tracer) error {
	in, err := generate(tr, subsetHard, func() []berkmin.Instance { return hardInstances(r.seed, r.small) })
	w.inputs = in
	return err
}

func (w *parallel) close() {}

func (w *parallel) pass(r *runner, tr *tracer) (passResult, error) {
	p := passResult{parts: map[string]time.Duration{}, counts: map[string]float64{}}
	for i := range w.inputs {
		in := &w.inputs[i]
		start := time.Now()
		root := tr.begin(spanParallelSolves, -1, int64(i))
		f, err := berkmin.ReadDimacs(bytes.NewReader(in.text))
		if err != nil {
			return p, fmt.Errorf("%s: %w", in.name, err)
		}
		var st berkmin.Status
		var model []bool
		if tr == nil {
			res := berkmin.SolveParallel(f, berkmin.ParallelOptions{Jobs: parallelJobs, Simplify: true, MaxTime: solveLimit})
			st, model = res.Status, res.Model
		} else {
			st, model = portfolioTraced(tr, root, int64(i), f, p.counts)
		}
		tr.end(root)
		p.parts["portfolio"] += time.Since(start)
		r.op(check(r, in, st, model))
	}
	for i := range w.inputs {
		in := &w.inputs[i]
		start := time.Now()
		root := tr.begin(spanParallelSolves, -1, int64(i))
		f, err := berkmin.ReadDimacs(bytes.NewReader(in.text))
		if err != nil {
			return p, fmt.Errorf("%s: %w", in.name, err)
		}
		if tr != nil {
			cubeSplitTraced(tr, root, int64(i), f)
		}
		sp := tr.begin(spanCubeSolve, root, int64(i))
		res := berkmin.SolveCubes(f, berkmin.CubeOptions{Jobs: parallelJobs, Simplify: true, MaxTime: solveLimit})
		tr.end(sp)
		tr.end(root)
		p.parts["cube"] += time.Since(start)
		r.op(check(r, in, res.Status, res.Model))
		p.counts["cube.cubes"] += float64(res.Cubes)
		p.counts["cube.refuted"] += float64(res.Refuted)
		p.counts["cube.solved"] += float64(res.Solved)
		p.counts["cube.steals"] += float64(res.Steals)
		p.counts["cube.conflicts"] += float64(res.Stats.Conflicts)
		p.counts["cube.shared"] += float64(res.Stats.ExportedClauses)
	}
	p.wall = p.parts["portfolio"] + p.parts["cube"]
	return p, nil
}

// portfolioTraced runs the portfolio through portfolio.SolveContext, the
// call SolveParallel makes, to read every member's result.
func portfolioTraced(tr *tracer, root int, id int64, f *berkmin.Formula, counts map[string]float64) (berkmin.Status, []bool) {
	so := berkmin.DefaultSimplifyOptions()
	sp := tr.begin(spanPortfolio, root, id)
	res := portfolio.SolveContext(context.Background(), f, portfolio.Options{
		Jobs: parallelJobs, Simplify: &so, MaxTime: solveLimit,
	})
	tr.end(sp)
	for _, j := range res.Jobs {
		st := j.Result.Stats
		counts["portfolio.conflicts"] += float64(st.Conflicts)
		counts["portfolio.shared"] += float64(st.ExportedClauses)
		counts["portfolio.imported"] += float64(st.ImportedClauses)
		if j.Config != res.Winner {
			counts["portfolio.loser_conflicts"] += float64(st.Conflicts)
		}
	}
	return res.Status, res.Model
}

// cubeSplitTraced times the lookahead cuber alone on the preprocessed
// formula, as SolveCubes would split it.
func cubeSplitTraced(tr *tracer, root int, id int64, f *berkmin.Formula) {
	sp := tr.begin(spanSimplify, root, id)
	out, _, _ := simplify.Run(f, berkmin.DefaultSimplifyOptions(), solveLimit, nil)
	tr.end(sp)
	sp = tr.begin(spanCubeSplit, root, id)
	cube.Split(out.Formula, cube.Options{Jobs: parallelJobs})
	tr.end(sp)
}

func (w *parallel) headline(passes []passResult) []named {
	return []named{
		{"portfolio_s", medianPart(passes, "portfolio"), "s"},
		{"cube_s", medianPart(passes, "cube"), "s"},
	}
}
