package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"berkmin"
)

// metrics aggregates the daemon's counters and gauges, exported in
// Prometheus text format by the /metrics handler. The per-solve engine
// numbers (conflicts, decisions, propagations, restarts) are folded in
// from the existing berkmin Stats of every completed job — each pooled
// job starts a fresh Stats lifetime (Pool.Put resets the solver), so one
// job contributes its own work exactly once.
type metrics struct {
	requests  sync.Map // endpoint label -> *atomic.Uint64
	solves    [3][4]atomic.Uint64
	shed      atomic.Uint64
	requeues  atomic.Uint64
	canceled  atomic.Uint64
	inflight  atomic.Int64
	queueWait atomic.Int64 // nanoseconds summed over started jobs
	started   atomic.Uint64

	conflicts    atomic.Uint64
	decisions    atomic.Uint64
	propagations atomic.Uint64
	restarts     atomic.Uint64
	learnt       atomic.Uint64
}

var statusLabels = [3]string{"unknown", "sat", "unsat"}
var stopLabels = [4]string{"none", "conflict-limit", "time-limit", "interrupted"}

func (m *metrics) request(endpoint string) {
	c, ok := m.requests.Load(endpoint)
	if !ok {
		c, _ = m.requests.LoadOrStore(endpoint, new(atomic.Uint64))
	}
	c.(*atomic.Uint64).Add(1)
}

// recordSolve folds one completed job into the counters.
func (m *metrics) recordSolve(r berkmin.Result) {
	st, stop := int(r.Status), int(r.Stop)
	if st < 0 || st >= len(statusLabels) || stop < 0 || stop >= len(stopLabels) {
		return
	}
	m.solves[st][stop].Add(1)
	m.conflicts.Add(r.Stats.Conflicts)
	m.decisions.Add(r.Stats.Decisions)
	m.propagations.Add(r.Stats.Propagations)
	m.restarts.Add(r.Stats.Restarts)
	m.learnt.Add(r.Stats.LearntTotal)
}

// gauges the renderer polls at scrape time.
type gauges struct {
	fastDepth, slowDepth int
	formulas             int
	pool                 berkmin.PoolStats // summed over live pools + retired
	workers              int
}

// render writes the Prometheus text exposition.
func (m *metrics) render(w io.Writer, g gauges) {
	counter := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	counter("satserved_requests_total", "HTTP requests by endpoint.")
	var eps []string
	m.requests.Range(func(k, _ any) bool { eps = append(eps, k.(string)); return true })
	sort.Strings(eps)
	for _, ep := range eps {
		c, _ := m.requests.Load(ep)
		fmt.Fprintf(w, "satserved_requests_total{endpoint=%q} %d\n", ep, c.(*atomic.Uint64).Load())
	}

	counter("satserved_solves_total", "Completed solve jobs by verdict and stop reason.")
	for si, sl := range statusLabels {
		for pi, pl := range stopLabels {
			if n := m.solves[si][pi].Load(); n > 0 {
				fmt.Fprintf(w, "satserved_solves_total{status=%q,stop=%q} %d\n", sl, pl, n)
			}
		}
	}

	counter("satserved_shed_total", "Requests rejected with 429 because the queue was full.")
	fmt.Fprintf(w, "satserved_shed_total %d\n", m.shed.Load())
	counter("satserved_requeues_total", "Jobs moved to the slow lane after exhausting their first slice.")
	fmt.Fprintf(w, "satserved_requeues_total %d\n", m.requeues.Load())
	counter("satserved_canceled_total", "Jobs abandoned before or during solving because their client went away.")
	fmt.Fprintf(w, "satserved_canceled_total %d\n", m.canceled.Load())
	counter("satserved_jobs_started_total", "Jobs a worker began executing.")
	fmt.Fprintf(w, "satserved_jobs_started_total %d\n", m.started.Load())
	counter("satserved_queue_wait_seconds_total", "Total seconds jobs spent queued before a worker picked them up.")
	fmt.Fprintf(w, "satserved_queue_wait_seconds_total %.6f\n", float64(m.queueWait.Load())/1e9)

	gauge("satserved_queue_depth", "Jobs currently queued, by lane.")
	fmt.Fprintf(w, "satserved_queue_depth{lane=\"fast\"} %d\n", g.fastDepth)
	fmt.Fprintf(w, "satserved_queue_depth{lane=\"slow\"} %d\n", g.slowDepth)
	gauge("satserved_inflight_solves", "Jobs currently executing on a worker.")
	fmt.Fprintf(w, "satserved_inflight_solves %d\n", m.inflight.Load())
	gauge("satserved_workers", "Configured worker goroutines.")
	fmt.Fprintf(w, "satserved_workers %d\n", g.workers)
	gauge("satserved_formulas", "Formulas currently stored.")
	fmt.Fprintf(w, "satserved_formulas %d\n", g.formulas)

	counter("satserved_pool_hits_total", "Pool Gets served by a recycled warm solver.")
	fmt.Fprintf(w, "satserved_pool_hits_total %d\n", g.pool.Hits)
	counter("satserved_pool_misses_total", "Pool Gets that derived a fresh solver from the snapshot.")
	fmt.Fprintf(w, "satserved_pool_misses_total %d\n", g.pool.Misses)
	counter("satserved_pool_dropped_total", "Solvers dropped instead of recycled (formula diverged beyond temp groups, proof writer, or over the idle cap).")
	fmt.Fprintf(w, "satserved_pool_dropped_total %d\n", g.pool.Dropped)
	gauge("satserved_pool_idle", "Warm solvers currently idle across all pools.")
	fmt.Fprintf(w, "satserved_pool_idle %d\n", g.pool.Idle)

	counter("satserved_conflicts_total", "Engine conflicts summed over completed jobs.")
	fmt.Fprintf(w, "satserved_conflicts_total %d\n", m.conflicts.Load())
	counter("satserved_decisions_total", "Engine decisions summed over completed jobs.")
	fmt.Fprintf(w, "satserved_decisions_total %d\n", m.decisions.Load())
	counter("satserved_propagations_total", "Engine propagations summed over completed jobs.")
	fmt.Fprintf(w, "satserved_propagations_total %d\n", m.propagations.Load())
	counter("satserved_restarts_total", "Engine restarts summed over completed jobs.")
	fmt.Fprintf(w, "satserved_restarts_total %d\n", m.restarts.Load())
	counter("satserved_learnt_clauses_total", "Learnt clauses deduced, summed over completed jobs.")
	fmt.Fprintf(w, "satserved_learnt_clauses_total %d\n", m.learnt.Load())
}
