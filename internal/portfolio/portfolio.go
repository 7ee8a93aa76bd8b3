// Package portfolio runs a portfolio of diversified core.Solver instances
// on the same formula concurrently: the first definitive answer wins and
// cancels the rest via core.Solver.Interrupt, and the solvers periodically
// exchange short learnt clauses through package conc's Hub. Portfolio
// solving with clause sharing is the standard route to robust parallel
// speedups for CDCL solvers (ManySAT-style); BerkMin itself is sequential,
// so everything here is an extension beyond the paper.
//
// Race is the engine: it takes an already-loaded master solver and races
// reconfigured clones of it. Loading, preprocessing, model reconstruction
// and verification belong to the caller — the root package's front-end
// Solver does all four for SolveParallel and Snapshot.SolveParallel.
package portfolio

import (
	"context"
	"fmt"
	"sync"
	"time"

	"berkmin/internal/cnf"
	"berkmin/internal/conc"
	"berkmin/internal/core"
	"berkmin/internal/simplify"
)

// Config names one solver configuration of the portfolio.
type Config struct {
	Name string
	Opt  core.Options
}

// Options configures a portfolio solve.
type Options struct {
	// Jobs is the number of concurrent solvers. <= 0 means GOMAXPROCS.
	Jobs int
	// Per-solver resource budgets, as in core.Options (0 = unlimited).
	MaxConflicts uint64
	MaxTime      time.Duration
	// BaseSeed diversifies the per-job PRNG seeds (0 means 1).
	BaseSeed uint64
	// Simplify, when non-nil, makes SolveContext preprocess the formula
	// once up front (package simplify); Race ignores it.
	Simplify *simplify.Options
}

// JobRun is the outcome of one portfolio member.
type JobRun struct {
	Config string
	Result core.Result
}

// Result is the portfolio outcome: the winning job's core.Result plus
// per-job provenance. When no job answers within its budget, Status is
// StatusUnknown and Stop carries a representative stop reason (a resource
// limit if any job hit one).
type Result struct {
	core.Result
	// Winner is the Config name of the job that produced the answer
	// (empty when every job returned StatusUnknown).
	Winner string
	// Jobs holds every member's result, indexed as in the configuration
	// list; losers that were cancelled report StopInterrupted.
	Jobs []JobRun
}

// ladder lists the portfolio members in order by their core preset
// names: the paper's presets (BerkMin, zChaff-like, limmat-like), the
// modern branching families (EVSIDS via modern, LRB) placed early so even
// small portfolios carry one member of each decider family, then
// restart-policy and polarity variants.
var ladder = []string{
	"berkmin", "modern", "lrb", "tiered", "chaff", "limmat", "berkmin-luby",
	"tiered-s3", "berkmin-s3", "take-rand", "chaff-phase", "berkmin-geo", "berkmin-inp",
}

// Variants returns n named, deliberately different solver configurations:
// the ladder in order and — beyond it — seed-shifted copies of the same
// ladder, so any n is valid.
func Variants(n int, baseSeed uint64) []Config {
	if baseSeed == 0 {
		baseSeed = 1
	}
	out := make([]Config, 0, n)
	for i := 0; i < n; i++ {
		name := ladder[i%len(ladder)]
		c := Config{Name: name, Opt: core.MustPreset(name)}
		c.Opt.Seed = baseSeed + uint64(i)
		if i >= len(ladder) {
			c.Name = fmt.Sprintf("%s#%d", c.Name, i/len(ladder))
		}
		out = append(out, c)
	}
	return out
}

// Race runs the portfolio to the first definitive answer over clones of
// an already-loaded master: each member is master.Clone() reconfigured to
// its variant, so clause ingestion is never repeated, and the master
// itself is only read — one master (e.g. a Snapshot's) can serve many
// concurrent Race calls. When ctx fires, every member is interrupted and
// the result reports StopInterrupted (with no members at all when ctx has
// fired before the call). All members are waited for before
// returning, so no goroutine outlives the call. The winning model is in
// the master's variable space — reconstruction and verification stay
// with the caller.
func Race(ctx context.Context, master *core.Solver, opt Options) Result {
	if ctx.Err() != nil {
		return Result{Result: core.Result{Status: core.StatusUnknown, Stop: core.StopInterrupted}}
	}
	cfgs := Variants(conc.Jobs(opt.Jobs), opt.BaseSeed)
	solvers := make([]*core.Solver, len(cfgs))
	for i, c := range cfgs {
		s := master.Clone()
		o := c.Opt
		o.MaxConflicts, o.MaxTime = opt.MaxConflicts, opt.MaxTime
		s.Reconfigure(o)
		solvers[i] = s
	}
	interruptAll := func(except int) {
		for j, s := range solvers {
			if j != except {
				s.Interrupt()
			}
		}
	}
	defer conc.OnDone(ctx, func() { interruptAll(-1) })()
	conc.Share(solvers)

	type outcome struct {
		idx int
		res core.Result
	}
	n := len(solvers)
	ch := make(chan outcome, n)
	var wg sync.WaitGroup
	for i, s := range solvers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch <- outcome{i, s.Solve()}
		}()
	}

	runs := make([]JobRun, n)
	winner := -1
	for k := 0; k < n; k++ {
		o := <-ch
		runs[o.idx] = JobRun{Config: cfgs[o.idx].Name, Result: o.res}
		if winner < 0 && o.res.Status != core.StatusUnknown {
			winner = o.idx
			interruptAll(o.idx)
		}
	}
	wg.Wait()

	if winner >= 0 {
		return Result{Result: runs[winner].Result, Winner: cfgs[winner].Name, Jobs: runs}
	}
	// Every member ran out of budget: report a representative run,
	// preferring one stopped by a resource limit over other reasons.
	rep := runs[0].Result
	for _, r := range runs {
		if r.Result.Stop.ResourceLimit() {
			rep = r.Result
			break
		}
	}
	return Result{Result: rep, Jobs: runs}
}

// SolveContext is the formula-in form of Race: preprocess f when
// opt.Simplify is set (stopping when ctx fires, its time deducted from
// MaxTime and charged to Runtime), load a master, Race it, map the model
// back and verify it against f. Its only caller is the perfbench traced
// run, which reads every member's result; programs use the root
// package's SolveParallel.
func SolveContext(ctx context.Context, f *cnf.Formula, opt Options) Result {
	orig := f
	var simplified *simplify.Outcome
	var preSpent time.Duration
	if opt.Simplify != nil {
		var interrupted func() bool
		if ctx.Done() != nil {
			interrupted = func() bool { return ctx.Err() != nil }
		}
		simplified, preSpent, opt.MaxTime = simplify.Run(f, *opt.Simplify, opt.MaxTime, interrupted)
		if simplified.Unsat {
			return Result{
				Result: core.Result{Status: core.StatusUnsat, Stats: core.Stats{Runtime: preSpent}},
				Winner: "simplify",
			}
		}
		f = simplified.Formula
	}
	master := core.New(core.DefaultOptions())
	master.AddFormula(f)
	res := Race(ctx, master, opt)
	res.Stats.Runtime += preSpent
	if res.Status == core.StatusSat {
		if simplified != nil {
			res.Model = simplified.Extend(res.Model)
		}
		if !cnf.Assignment(res.Model).Satisfies(orig) {
			panic("portfolio: internal error: winning model does not satisfy the formula")
		}
	}
	return res
}
