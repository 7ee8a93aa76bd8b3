package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"berkmin"
	"berkmin/internal/simplify"
)

// solveLimit bounds every solve; a solve that hits it counts as failed.
const solveLimit = 30 * time.Second

// input is one generated instance: its DIMACS text (what a CLI user feeds
// the solver), the generator's formula for model checks, and the status
// the generator guarantees.
type input struct {
	name    string
	subset  string
	text    []byte
	formula *berkmin.Formula
	exp     berkmin.Expected
}

// subsets of the oneshot workload.
const (
	subsetHard  = "hard"
	subsetLarge = "large"
)

// hardInstances is the search-dominated subset: small formulas with many
// conflicts. Pigeonhole and Hanoi are fixed; the seed re-draws the
// multiplier miter, the pipelines and the Sss miters, several of each so
// that the sum stays steady from seed to seed.
func hardInstances(seed int64, small bool) []berkmin.Instance {
	rng := rand.New(rand.NewSource(seed))
	draw := func() int64 { return rng.Int63n(1<<30) + 1 }
	if small {
		return []berkmin.Instance{
			berkmin.Pigeonhole(6),
			berkmin.PipeUnsat(2, 4, draw()),
			berkmin.PipelineVerification(2, 3, false, draw()),
			berkmin.MiterUnsat(10, 40, draw()),
		}
	}
	out := []berkmin.Instance{
		berkmin.Pigeonhole(7),
		berkmin.Pigeonhole(8),
		berkmin.Hanoi(5),
		berkmin.MultiplierMiter(6, draw()),
	}
	for i := 0; i < 6; i++ {
		out = append(out, berkmin.PipeUnsat(3, 5, draw()))
	}
	for i := 0; i < 4; i++ {
		out = append(out, berkmin.PipelineVerification(2, 4, false, draw()))
		out = append(out, berkmin.MiterUnsat(14, 90, draw()))
	}
	return out
}

// largeInstances is the simplify-dominated subset: big planning and VLIW
// formulas that preprocessing takes apart and search barely touches.
func largeInstances(seed int64, small bool) []berkmin.Instance {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	draw := func() int64 { return rng.Int63n(1<<30) + 1 }
	if small {
		return []berkmin.Instance{
			berkmin.Blocksworld(4, 0, draw()),
			berkmin.VliwSat(3, 6, draw()),
		}
	}
	var out []berkmin.Instance
	for i := 0; i < 4; i++ {
		out = append(out, berkmin.Blocksworld(6, 0, draw()))
	}
	for i := 0; i < 2; i++ {
		out = append(out, berkmin.VliwSat(5, 8, draw()), berkmin.VliwSat(6, 8, draw()))
	}
	return out
}

// generate builds instances inside gen spans and encodes them as DIMACS.
func generate(tr *tracer, subset string, build func() []berkmin.Instance) ([]input, error) {
	sp := tr.begin(spanGen, -1, 0)
	insts := build()
	tr.end(sp)
	out := make([]input, len(insts))
	for i, inst := range insts {
		var buf bytes.Buffer
		if err := berkmin.WriteDimacs(&buf, inst.Formula); err != nil {
			return nil, fmt.Errorf("encode %s: %w", inst.Name, err)
		}
		out[i] = input{name: inst.Name, subset: subset, text: buf.Bytes(), formula: inst.Formula, exp: inst.Expected}
	}
	return out, nil
}

// check compares a verdict with the generator's status and verifies a
// model against the original formula. It reports whether the solve
// answered at all.
func check(r *runner, in *input, st berkmin.Status, model []bool) bool {
	switch st {
	case berkmin.StatusSat:
		if in.exp == berkmin.ExpUnsat {
			r.fail("%s: SAT, expected UNSAT", in.name)
		} else if !berkmin.Verify(in.formula, model) {
			r.fail("%s: model does not satisfy the formula", in.name)
		}
	case berkmin.StatusUnsat:
		if in.exp == berkmin.ExpSat {
			r.fail("%s: UNSAT, expected SAT", in.name)
		}
	default:
		return false
	}
	return true
}

// oneshot solves each instance once on a fresh solver, the way the CLI
// does: DIMACS text, ReadDimacs, a default (BerkMin) solver with default
// preprocessing, Solve.
type oneshot struct {
	inputs []input
}

func (w *oneshot) setup(r *runner, tr *tracer) error {
	hard, err := generate(tr, subsetHard, func() []berkmin.Instance { return hardInstances(r.seed, r.small) })
	if err != nil {
		return err
	}
	large, err := generate(tr, subsetLarge, func() []berkmin.Instance { return largeInstances(r.seed, r.small) })
	if err != nil {
		return err
	}
	w.inputs = append(hard, large...)
	return nil
}

func (w *oneshot) close() {}

func (w *oneshot) pass(r *runner, tr *tracer) (passResult, error) {
	p := passResult{parts: map[string]time.Duration{}, counts: map[string]float64{}}
	var search, simp = map[string]time.Duration{}, map[string]time.Duration{}
	for i := range w.inputs {
		in := &w.inputs[i]
		var d time.Duration
		var err error
		if tr == nil {
			d, err = solveCLI(r, in, p.counts)
		} else {
			var s, sp time.Duration
			d, s, sp, err = solveTraced(r, tr, int64(i), in, p.counts)
			search[in.subset] += s
			simp[in.subset] += sp
		}
		if err != nil {
			return p, err
		}
		p.parts[in.subset] += d
		p.wall += d
	}
	if tr != nil {
		p.extra = map[string]float64{
			"hard.search_share":    search[subsetHard].Seconds() / p.parts[subsetHard].Seconds(),
			"large.simplify_share": simp[subsetLarge].Seconds() / p.parts[subsetLarge].Seconds(),
		}
	}
	return p, nil
}

func solverOptions() berkmin.Options {
	opt := berkmin.DefaultOptions()
	opt.MaxTime = solveLimit
	return opt
}

// solveCLI is the timed CLI path, from DIMACS text to verdict.
func solveCLI(r *runner, in *input, counts map[string]float64) (time.Duration, error) {
	start := time.Now()
	f, err := berkmin.ReadDimacs(bytes.NewReader(in.text))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", in.name, err)
	}
	s := berkmin.NewWithOptions(solverOptions())
	so := berkmin.DefaultSimplifyOptions()
	s.SetSimplify(&so)
	s.AddFormula(f)
	res := s.Solve()
	d := time.Since(start)
	r.op(check(r, in, res.Status, res.Model))
	countSimplify(counts, len(f.Clauses), s.SimplifyOutcome())
	countStats(counts, res.Stats)
	return d, nil
}

// solveTraced runs the same solve decomposed into its layers: parse,
// simplify.Run, ingest of the simplified formula into a solver without
// preprocessing, search, and model reconstruction. It returns the
// instance's wall time and its search and simplify times.
func solveTraced(r *runner, tr *tracer, id int64, in *input, counts map[string]float64) (wall, search, simp time.Duration, err error) {
	start := time.Now()
	root := tr.begin(spanOneshot, -1, id)
	sp := tr.begin(spanParse, root, id)
	f, err := berkmin.ReadDimacs(bytes.NewReader(in.text))
	tr.end(sp)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%s: %w", in.name, err)
	}
	counts["dimacs.bytes"] += float64(len(in.text))

	t := time.Now()
	sp = tr.begin(spanSimplify, root, id)
	out, _, _ := simplify.Run(f, berkmin.DefaultSimplifyOptions(), solveLimit, nil)
	tr.end(sp)
	simp = time.Since(t)

	sp = tr.begin(spanIngest, root, id)
	s := berkmin.NewWithOptions(solverOptions())
	s.AddFormula(out.Formula)
	tr.end(sp)

	t = time.Now()
	sp = tr.begin(spanSearch, root, id)
	res := s.Solve()
	tr.end(sp)
	search = time.Since(t)

	sp = tr.begin(spanVerify, root, id)
	model := res.Model
	if res.Status == berkmin.StatusSat {
		model = out.Extend(model)
	}
	r.op(check(r, in, res.Status, model))
	tr.end(sp)
	tr.end(root)
	countSimplify(counts, len(f.Clauses), out)
	countStats(counts, res.Stats)
	return time.Since(start), search, simp, nil
}

func countSimplify(counts map[string]float64, clauses int, o *berkmin.SimplifyOutcome) {
	if o == nil {
		return
	}
	counts["simplify.eliminated_vars"] += float64(o.EliminatedVars)
	counts["simplify.removed_clauses"] += float64(clauses - len(o.Formula.Clauses))
}

// countStats adds one solve's search counters.
func countStats(counts map[string]float64, st berkmin.Stats) {
	counts["core.conflicts"] += float64(st.Conflicts)
	counts["core.decisions"] += float64(st.Decisions)
	counts["core.propagations"] += float64(st.Propagations)
	counts["core.restarts"] += float64(st.Restarts)
	counts["core.learnt"] += float64(st.LearntTotal)
	counts["core.deleted"] += float64(st.DeletedTotal)
	counts["core.arena_gcs"] += float64(st.ArenaGCs)
	counts["core.peak_live_clauses"] += float64(st.PeakLiveClauses)
	counts["core.top_decisions"] += float64(st.TopClauseDecisions)
	counts["core.global_decisions"] += float64(st.GlobalDecisions)
	counts["core.bin_propagations"] += float64(st.BinPropagations)
}

func (w *oneshot) headline(passes []passResult) []named {
	return []named{
		{"hard_s", medianPart(passes, subsetHard), "s"},
		{"large_s", medianPart(passes, subsetLarge), "s"},
	}
}
