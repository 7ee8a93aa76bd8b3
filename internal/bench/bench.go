// Package bench is the experiment harness: it defines the scaled-down
// regenerations of the paper's twelve benchmark classes, runs solver
// configurations over them under resource limits, and renders the results
// in the shape of the paper's Tables 1–10.
//
// Absolute runtimes are not comparable to the paper's (PentiumIII-700 /
// 450MHz Ultra-80 vs. this machine, and scaled instance sizes), so every
// table renderer also records the paper's qualitative claim as a note
// (Report.Notes) printed beneath the measured numbers.
package bench

import (
	"fmt"
	"time"

	"berkmin"
	"berkmin/internal/cnf"
	"berkmin/internal/core"
	"berkmin/internal/gen"
)

// Config names a solver configuration under test.
type Config struct {
	Name string
	Opt  core.Options
	// Jobs > 1 benches the parallel portfolio engine instead of a single
	// solver: N diversified members race on each instance (Opt is ignored;
	// the portfolio picks its own diversification).
	Jobs int
}

// Limits bounds each individual solver run. Zero fields mean unlimited.
type Limits struct {
	MaxConflicts uint64
	MaxTime      time.Duration
	// Simplify is a run-wide toggle (satbench -simplify): preprocess each
	// instance before solving, with models mapped back to the original
	// variables for verification. Preprocessing time counts toward the
	// reported runtime, so the tables stay end-to-end honest.
	Simplify bool
}

// InstanceResult is the outcome of one (instance, config) run.
type InstanceResult struct {
	Instance string
	Family   string
	Config   string
	Status   core.Status
	// Aborted is true iff the run stopped on a configured resource limit
	// (conflicts / decisions / time) — derived from the solver's explicit
	// stop reason, so an interrupted or genuinely-unknown run is not
	// misreported as a budget abort in the tables.
	Aborted bool
	Wrong   bool // answer contradicts the generator's expected status
	Stats   core.Stats
}

// RunInstance solves one instance under one configuration, through the
// root package's front end: it preprocesses when lim.Simplify is set
// (bounded by the instance budget, its time charged to Runtime) and maps
// models back to the original variables.
func RunInstance(inst gen.Instance, cfg Config, lim Limits) InstanceResult {
	var r core.Result
	if cfg.Jobs > 1 {
		// The winner's Runtime is the wall-clock time to the answer,
		// which is the number the tables want.
		r = berkmin.SolveParallel(inst.Formula, berkmin.ParallelOptions{
			Jobs:         cfg.Jobs,
			MaxConflicts: lim.MaxConflicts,
			MaxTime:      lim.MaxTime,
			Simplify:     lim.Simplify,
		}).Result
	} else {
		opt := cfg.Opt
		opt.MaxConflicts = lim.MaxConflicts
		opt.MaxTime = lim.MaxTime
		s := berkmin.NewWithOptions(opt)
		// A wrong model is a table entry (Wrong), not a panic.
		s.SetVerifyModels(false)
		if lim.Simplify {
			so := berkmin.DefaultSimplifyOptions()
			s.SetSimplify(&so)
		}
		s.AddFormula(inst.Formula)
		r = s.Solve()
	}
	res := InstanceResult{
		Instance: inst.Name,
		Family:   inst.Family,
		Config:   cfg.Name,
		Status:   r.Status,
		Aborted:  r.Stop.ResourceLimit(),
		Stats:    r.Stats,
	}
	switch {
	case r.Status == core.StatusSat && inst.Expected == gen.ExpUnsat,
		r.Status == core.StatusUnsat && inst.Expected == gen.ExpSat:
		res.Wrong = true
	case r.Status == core.StatusSat:
		if !cnf.Assignment(r.Model).Satisfies(inst.Formula) {
			res.Wrong = true
		}
	}
	return res
}

// ClassResult aggregates a configuration's results over one class.
type ClassResult struct {
	Class     string
	Config    string
	Instances int
	Time      time.Duration
	Aborted   int
	Wrong     int
	Decisions uint64
	Conflicts uint64
}

// RunClass runs every instance of the class under the configuration.
func RunClass(class string, insts []gen.Instance, cfg Config, lim Limits) ClassResult {
	out := ClassResult{Class: class, Config: cfg.Name, Instances: len(insts)}
	for _, inst := range insts {
		r := RunInstance(inst, cfg, lim)
		out.Time += r.Stats.Runtime
		out.Decisions += r.Stats.Decisions
		out.Conflicts += r.Stats.Conflicts
		if r.Aborted {
			out.Aborted++
		}
		if r.Wrong {
			out.Wrong++
		}
	}
	return out
}

// fmtSeconds renders a duration the way the paper's tables do (seconds).
func fmtSeconds(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// fmtTotal renders a class total, annotating aborts like the paper's
// "> 120,243 (2)" entries.
func fmtTotal(c ClassResult, lim Limits) string {
	if c.Aborted == 0 {
		return fmtSeconds(c.Time)
	}
	return fmt.Sprintf(">%s (%d)", fmtSeconds(c.Time), c.Aborted)
}
