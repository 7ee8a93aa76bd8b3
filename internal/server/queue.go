package server

import (
	"context"
	"errors"
	"time"

	"berkmin"
)

// The job queue. Two bounded lanes feed a fixed worker pool:
//
//   - Every job is admitted to the FAST lane (non-blocking; a full lane
//     sheds the request with 429 + Retry-After — the load-shedding
//     contract).
//   - A worker gives each fresh job a first slice of Config.FairSlice
//     wall-clock. Cheap queries — the dominant shape of assumption-query
//     streams — finish inside the slice and never notice.
//   - A job that outlives its slice is REQUEUED to the SLOW lane, keeping
//     its solver (and therefore the clauses it has learnt so far: the
//     retry continues an incremental solver, it does not start over).
//     Workers only take slow-lane jobs when the fast lane is empty.
//   - Slow-lane jobs keep running in slices too, doubling per requeue up
//     to 64x (multi-level feedback queueing): a pathological instance
//     never monopolizes a worker for its whole deadline, yet its
//     per-slice requeue overhead decays geometrically.
//
// The effect is shortest-job-first fairness without up-front cost
// estimates: a pathological instance can delay cheap queries by at most
// one (bounded) slice per worker, and the per-request deadline ceiling
// (Config.MaxDeadline) bounds its total worker time outright.
type job struct {
	ctx         context.Context
	assumptions []int

	// Per-query temporary clauses (solveRequest.TempClauses): installed
	// into a fresh clause group on the job's first slice — tempAdded
	// guards requeues, which continue the same warm solver — and released
	// when the query completes. minimizeCore is the per-probe conflict
	// budget for failed-assumption shrinking, cleared before the solver
	// returns to the pool.
	tempClauses  [][]int
	minimizeCore uint64
	tempGroup    berkmin.Group
	tempAdded    bool

	// Exactly one source of a solver: pooled jobs borrow from pool at
	// execution time (so queued jobs hold no solver memory); one-shot
	// jobs own solver outright. After a slice requeue, solver carries
	// the warm incremental solver either way.
	pool   *berkmin.Pool
	solver *berkmin.Solver

	requeued bool
	slices   int // completed slices; scales the next slice's budget
	enqueued time.Time
	done     chan jobResult // buffered(1): workers never block on delivery
}

type jobResult struct {
	res        berkmin.Result
	err        error
	queueWait  time.Duration
	requeued   bool
	tempInCore bool
}

// enqueue admits a job to the fast lane, shedding when full.
func (s *Server) enqueue(j *job) error {
	if s.closed.Load() {
		return ErrClosed
	}
	select {
	case s.fast <- j:
		return nil
	default:
		s.metrics.shed.Add(1)
		return ErrQueueFull
	}
}

// enqueueWait admits a job to the fast lane, waiting for room instead of
// shedding — the batch endpoint's admission (one HTTP request, many jobs:
// the batch as a whole was already admitted).
func (s *Server) enqueueWait(j *job) error {
	if s.closed.Load() {
		return ErrClosed
	}
	select {
	case s.fast <- j:
		return nil
	default:
	}
	select {
	case s.fast <- j:
		return nil
	case <-j.ctx.Done():
		return ctxSentinel(j.ctx.Err())
	case <-s.stop:
		return ErrClosed
	}
}

// worker executes jobs until the server closes, preferring the fast lane.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		// Fast lane first, without blocking...
		select {
		case j := <-s.fast:
			s.runJob(j)
			continue
		default:
		}
		// ...then whichever lane delivers first.
		select {
		case j := <-s.fast:
			s.runJob(j)
		case j := <-s.slow:
			s.runJob(j)
		case <-s.stop:
			return
		}
	}
}

// runJob executes one job: first-slice fairness, slow-lane requeue, pool
// recycling, metrics. It always delivers exactly one jobResult unless the
// job is requeued.
func (s *Server) runJob(j *job) {
	wait := time.Since(j.enqueued)
	if err := j.ctx.Err(); err != nil {
		// The client disconnected (or timed out) while the job was
		// queued; don't waste a solver on it. A requeued job is already
		// holding its solver — recycle it.
		if j.solver != nil && j.pool != nil {
			j.pool.Put(j.solver)
		}
		s.metrics.canceled.Add(1)
		j.done <- jobResult{err: ctxSentinel(err), queueWait: wait}
		return
	}

	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	if !j.requeued {
		s.metrics.started.Add(1)
		s.metrics.queueWait.Add(int64(wait))
	}

	solver := j.solver
	if solver == nil {
		solver = j.pool.Get()
	}
	if len(j.tempClauses) > 0 && !j.tempAdded {
		j.tempGroup = solver.NewClauseGroup()
		j.tempAdded = true
		for _, c := range j.tempClauses {
			// ErrSolverDead just means UNSAT is already settled; the solve
			// below reports it. Literals were validated at admission.
			if err := solver.AddClauseGroup(j.tempGroup, c...); err != nil && !errors.Is(err, berkmin.ErrSolverDead) {
				if j.pool != nil {
					j.pool.Put(solver)
				}
				j.done <- jobResult{err: err, queueWait: wait}
				return
			}
		}
	}
	if j.minimizeCore > 0 {
		solver.SetCoreMinimize(j.minimizeCore)
	}
	solve := func(ctx context.Context) (berkmin.Result, error) {
		if len(j.assumptions) > 0 {
			return solver.SolveAssumingContext(ctx, j.assumptions...)
		}
		return solver.SolveContext(ctx)
	}

	var r berkmin.Result
	var err error
	if s.cfg.FairSlice > 0 {
		// Escalating slice: doubles per requeue, capped at 64x, so heavy
		// jobs pay geometrically less requeue overhead but still yield.
		slice := s.cfg.FairSlice << min(j.slices, 6)
		sliceCtx, cancel := context.WithTimeout(j.ctx, slice)
		r, err = solve(sliceCtx)
		cancel()
		if errors.Is(err, berkmin.ErrDeadline) && j.ctx.Err() == nil {
			// The slice expired but the request is still live: this is a
			// heavy query. Hand it back to the slow lane with its warm
			// solver — the next slice continues where this one stopped.
			j.requeued = true
			j.slices++
			j.solver = solver
			s.metrics.requeues.Add(1)
			select {
			case s.slow <- j:
				return
			default:
				// Slow lane full; finish in place rather than shed a job
				// that was already admitted.
				r, err = solve(j.ctx)
			}
		}
	} else {
		r, err = solve(j.ctx)
	}

	var tempInCore bool
	if j.tempAdded {
		if r.Status == berkmin.StatusUnsat {
			groups, _ := solver.UnsatCore()
			for _, g := range groups {
				if g == j.tempGroup {
					tempInCore = true
				}
			}
		}
		// Retire the query's group before the solver goes anywhere. Put
		// would retire it too when it recycles the solver (dropping the
		// group's clauses and activation variable), but releasing here
		// keeps any proof stream consistent and leaves an unpooled solver
		// without the temp clauses.
		solver.ReleaseGroup(j.tempGroup)
	}
	if j.minimizeCore > 0 {
		solver.SetCoreMinimize(0)
	}
	if j.pool != nil {
		j.pool.Put(solver)
	}
	if errors.Is(err, berkmin.ErrCanceled) {
		s.metrics.canceled.Add(1)
	}
	s.metrics.recordSolve(r)
	j.done <- jobResult{res: r, err: err, queueWait: wait, requeued: j.requeued, tempInCore: tempInCore}
}

// ctxSentinel maps a context error to the root package's sentinels, so
// queue-time and solve-time cancellation report identically.
func ctxSentinel(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return berkmin.ErrDeadline
	}
	return berkmin.ErrCanceled
}
