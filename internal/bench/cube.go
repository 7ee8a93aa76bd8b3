package bench

import (
	"fmt"

	"berkmin"
	"berkmin/internal/cnf"
	"berkmin/internal/core"
	"berkmin/internal/gen"
)

// CubeConquer benches cube-and-conquer scaling on the hard instance set:
// each instance is solved sequentially (the best single configuration,
// default BerkMin) and then by cube-and-conquer at each worker count, so
// the table shows how wall clock falls as workers are added to a single
// hard instance — the scale-out axis the portfolio cannot reach, since
// racing identical formulas saturates at the variant count. Note the
// per-run conflict budget does not apply to the cube runs (the cube
// scheduler budgets wall clock only); the time budget applies to both.
func CubeConquer(sc Scale, lim Limits, workers []int) *Report {
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}
	insts := HardInstances(sc)
	header := []string{"Instance", "Sequential (s)"}
	for _, w := range workers {
		header = append(header, fmt.Sprintf("cube-%d (s)", w))
	}
	rep := &Report{
		Title:  "Cube and conquer — sequential BerkMin vs lookahead splitting + work-stealing conquest",
		Header: header,
		Notes: []string{
			"each cube-N column solves the same instance split into cubes, conquered by N workers",
		},
	}
	seq := Config{Name: "BerkMin", Opt: core.DefaultOptions()}
	seqTotal := ClassResult{}
	totals := make([]ClassResult, len(workers))
	for _, inst := range insts {
		s := RunInstance(inst, seq, lim)
		seqTotal.Time += s.Stats.Runtime
		if s.Aborted {
			seqTotal.Aborted++
		}
		if s.Wrong {
			seqTotal.Wrong++
		}
		row := []string{inst.Name, fmtInstance(s, lim)}
		for i, w := range workers {
			c := runCubeInstance(inst, w, lim)
			totals[i].Time += c.Stats.Runtime
			if c.Aborted {
				totals[i].Aborted++
			}
			if c.Wrong {
				totals[i].Wrong++
			}
			row = append(row, fmtInstance(c, lim))
		}
		rep.Rows = append(rep.Rows, row)
	}
	totalRow := []string{"Total", fmtTotal(seqTotal, lim)}
	speedupRow := []string{"Speedup", "1.00x"}
	wrong := seqTotal.Wrong
	for i := range workers {
		totalRow = append(totalRow, fmtTotal(totals[i], lim))
		speedupRow = append(speedupRow, fmtSpeedup(seqTotal, totals[i]))
		wrong += totals[i].Wrong
	}
	rep.Rows = append(rep.Rows, totalRow, speedupRow)
	if wrong > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("WARNING: %d wrong answers", wrong))
	}
	return rep
}

// runCubeInstance solves one instance by cube-and-conquer with w workers,
// under the run-wide limits (simplify toggle and wall clock).
func runCubeInstance(inst gen.Instance, w int, lim Limits) InstanceResult {
	r := berkmin.SolveCubes(inst.Formula, berkmin.CubeOptions{Jobs: w, MaxTime: lim.MaxTime, Simplify: lim.Simplify})
	res := InstanceResult{
		Instance: inst.Name,
		Family:   inst.Family,
		Config:   fmt.Sprintf("cube-%d", w),
		Status:   r.Status,
		Aborted:  r.Stop.ResourceLimit(),
		Stats:    core.Stats{Runtime: r.Stats.Runtime},
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

// fmtInstance renders one run's time, flagging aborts as the totals do.
func fmtInstance(r InstanceResult, lim Limits) string {
	if !r.Aborted {
		return fmtSeconds(r.Stats.Runtime)
	}
	return ">" + fmtSeconds(r.Stats.Runtime)
}
