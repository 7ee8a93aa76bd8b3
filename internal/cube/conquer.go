package cube

import (
	"bytes"
	"context"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"berkmin/internal/cnf"
	"berkmin/internal/conc"
	"berkmin/internal/core"
)

// Options configures a cube-and-conquer solve.
type Options struct {
	// Jobs is the number of conquer workers. <= 0 means GOMAXPROCS (and
	// never more workers than cubes).
	Jobs int
	// MaxCubes bounds the open cubes the cuber produces (0 means
	// DefaultMaxCubes).
	MaxCubes int
	// MaxDepth bounds the split depth (0 means DefaultMaxDepth).
	MaxDepth int
	// ShareMaxGlue is the glue cap for clauses exchanged between workers
	// through the conc hub, on top of the conc.ShareMaxLen length cap: 0
	// means conc.DefaultShareMaxGlue, negative disables the glue route.
	// Sharing is off when Proof is set: imported clauses need not be RUP
	// for the importer's own trace, so proof-logging workers would drop
	// imports anyway (core.Import's rule) and the stitched proof stays
	// self-contained.
	ShareMaxGlue int
	// Conquer configures the workers (zero value means
	// core.DefaultOptions()). Workers differ only in Seed; the cuber has
	// already diversified the work itself.
	Conquer core.Options
	// MaxTime bounds the whole call — cubing plus conquering — end to
	// end (0 = unlimited).
	MaxTime time.Duration
	// BaseSeed diversifies per-worker PRNG seeds (0 means 1).
	BaseSeed uint64
	// Proof, when non-nil, receives a stitched DRUP refutation of the
	// input formula whenever the verdict is UNSAT.
	Proof io.Writer
}

// Result is the outcome of a cube-and-conquer solve.
type Result struct {
	Status core.Status
	// Stop explains a StatusUnknown verdict (deadline, interrupt).
	Stop core.StopReason
	// Model is the satisfying assignment when Status is StatusSat,
	// indexed by variable (index 0 unused).
	Model []bool
	// Cubes is the number of open cubes handed to the conquer phase;
	// Refuted counts cubes the cuber closed by propagation alone.
	Cubes   int
	Refuted int
	// Solved counts cubes conquered before the run ended (on a SAT or
	// Unknown verdict the remaining cubes are abandoned).
	Solved int
	// Steals counts work-stealing events between worker deques.
	Steals int
	// Conflicts sums the workers' conflict counts.
	Conflicts uint64
	// Shared sums the clauses workers exported through the hub.
	Shared uint64
	// Runtime is the end-to-end wall clock of the call.
	Runtime time.Duration
}

// deque is one worker's cube queue. The owner pops from the front —
// cubes were dealt in contiguous blocks, so front-to-back order keeps a
// worker on neighbouring cubes, whose shared prefix keeps its learnt
// clauses relevant — and thieves steal a batch from the back, where the
// cubes least related to the owner's current position live.
type deque struct {
	mu    sync.Mutex
	items []int
}

func (d *deque) popFront() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return 0, false
	}
	idx := d.items[0]
	d.items = d.items[1:]
	return idx, true
}

// stealBack removes up to half the victim's cubes (at least one) from
// the back and returns them.
func (d *deque) stealBack() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return nil
	}
	take := (n + 1) / 2
	stolen := append([]int(nil), d.items[n-take:]...)
	d.items = d.items[:n-take]
	return stolen
}

func (d *deque) pushBack(idxs []int) {
	d.mu.Lock()
	d.items = append(d.items, idxs...)
	d.mu.Unlock()
}

// engine is the conquer phase: workers, their deques, and the shared
// verdict state.
type engine struct {
	cubes   [][]cnf.Lit
	solvers []*core.Solver
	deques  []deque
	hub     *conc.Hub // nil when sharing is off

	deadline time.Time

	done    atomic.Bool  // a worker won or the run was cancelled
	winner  atomic.Int32 // worker index that found SAT, -1 otherwise
	model   []bool       // winner's model (written once, before done)
	failRes core.StopReason

	solved atomic.Int64
	steals atomic.Int64

	mu sync.Mutex // guards model, failRes
}

// cancelAll interrupts every worker; the done flag stops workers between
// cubes and the interrupts stop them inside a solve.
func (e *engine) cancelAll() {
	e.done.Store(true)
	for _, s := range e.solvers {
		s.Interrupt()
	}
}

// next pulls the worker's next cube: own deque first, then a steal sweep
// over the other deques (the batch lands in its own deque). False means
// every deque is dry and the worker should exit.
func (e *engine) next(i int) (int, bool) {
	if idx, ok := e.deques[i].popFront(); ok {
		return idx, true
	}
	n := len(e.deques)
	for k := 1; k < n; k++ {
		victim := (i + k) % n
		if stolen := e.deques[victim].stealBack(); len(stolen) > 0 {
			e.steals.Add(1)
			idx := stolen[0]
			if len(stolen) > 1 {
				e.deques[i].pushBack(stolen[1:])
			}
			return idx, true
		}
	}
	return 0, false
}

func (e *engine) worker(i int) {
	s := e.solvers[i]
	for {
		if e.done.Load() {
			return
		}
		idx, ok := e.next(i)
		if !ok {
			return
		}
		if !e.deadline.IsZero() {
			rem := time.Until(e.deadline)
			if rem <= 0 {
				e.fail(core.StopTime)
				return
			}
			s.SetMaxTime(rem)
		}
		r := s.SolveAssuming(e.cubes[idx])
		switch r.Status {
		case core.StatusSat:
			e.win(i, r.Model)
			return
		case core.StatusUnsat:
			e.solved.Add(1)
			if e.hub != nil {
				// The refuted cube's core is a clause of the formula's
				// consequences: broadcast it so other workers prune
				// related cubes early. from = -1 reaches everyone,
				// including this worker's own future cubes' neighbours.
				if neg := negate(r.FailedAssumptions); len(neg) > 0 {
					e.hub.Publish(-1, neg, len(neg))
				}
			}
		default:
			if e.done.Load() {
				return // cancelled by a winner or the caller
			}
			e.fail(r.Stop)
			return
		}
	}
}

// win records the first satisfying model and cancels everyone else.
func (e *engine) win(i int, model []bool) {
	e.mu.Lock()
	if e.winner.Load() < 0 {
		e.winner.Store(int32(i))
		e.model = model
	}
	e.mu.Unlock()
	e.cancelAll()
}

// fail records that a cube went unanswered (deadline or interrupt) and
// cancels the run: the all-UNSAT verdict is no longer reachable.
func (e *engine) fail(stop core.StopReason) {
	e.mu.Lock()
	if e.failRes == core.StopNone {
		e.failRes = stop
	}
	e.mu.Unlock()
	e.cancelAll()
}

func negate(lits []cnf.Lit) []cnf.Lit {
	out := make([]cnf.Lit, len(lits))
	for i, l := range lits {
		out[i] = l.Not()
	}
	return out
}

// SolveContext runs cube-and-conquer over an already-loaded master: it
// cubes on a scratch clone of master, then conquers with master itself as
// worker 0 (so master is mutated — pass a dedicated solver) plus clones.
// When ctx fires, the cuber stops at its next node, every worker is
// interrupted, and the result reports StopInterrupted (at once, with
// nothing cloned, when ctx fired before the call). The model is in the
// master's variable space and the stitched proof refutes the master's
// formula; reconstruction, verification and any preprocessing trace that
// leads the proof stay with the caller (the root package's SolveCubes).
func SolveContext(ctx context.Context, master *core.Solver, opt Options) (res Result) {
	start := time.Now()
	defer func() { res.Runtime = time.Since(start) }()
	opt = opt.withDefaults()
	var deadline time.Time
	if opt.MaxTime > 0 {
		deadline = start.Add(opt.MaxTime)
	}

	if master.Dead() {
		// Level-0 refutation during clause ingestion: the empty clause
		// is derivable by propagation alone, which is the one-line proof.
		if opt.Proof != nil {
			writeClause(opt.Proof, nil)
		}
		return Result{Status: core.StatusUnsat}
	}
	if ctx.Err() != nil {
		return Result{Status: core.StatusUnknown, Stop: core.StopInterrupted}
	}

	// Cube phase. The scratch clone has never solved, so its database is
	// exactly the problem clauses — the refuted-leaf proof obligation in
	// proof.go depends on that.
	cuber := newCuber(master.Clone(), opt, deadlineCancel(ctx.Done(), deadline))
	root := cuber.build()
	cubes := cuber.cubes

	if len(cubes) == 0 {
		// The cuber refuted every branch by propagation: UNSAT with a
		// proof made of tree lines alone.
		if opt.Proof != nil {
			stitch(opt.Proof, nil, root)
		}
		return Result{Status: core.StatusUnsat, Refuted: cuber.refuted}
	}
	if ctx.Err() != nil || (!deadline.IsZero() && time.Now().After(deadline)) {
		stop := core.StopTime
		if ctx.Err() != nil {
			stop = core.StopInterrupted
		}
		return Result{Status: core.StatusUnknown, Stop: stop,
			Cubes: len(cubes), Refuted: cuber.refuted}
	}

	// Conquer phase.
	w := conc.Jobs(opt.Jobs)
	if w > len(cubes) {
		w = len(cubes)
	}
	e := &engine{
		cubes:    cubes,
		solvers:  make([]*core.Solver, w),
		deques:   make([]deque, w),
		deadline: deadline,
	}
	e.winner.Store(-1)
	traces := make([]*bytes.Buffer, w)
	for i := 1; i < w; i++ {
		e.solvers[i] = master.Clone()
	}
	e.solvers[0] = master
	for i, s := range e.solvers {
		o := opt.Conquer
		o.Seed = opt.BaseSeed + uint64(i)
		s.Reconfigure(o)
		if opt.Proof != nil {
			traces[i] = &bytes.Buffer{}
			s.SetProofWriter(traces[i])
		}
	}

	if opt.Proof == nil { // see Options.ShareMaxGlue
		e.hub = conc.Share(e.solvers, opt.ShareMaxGlue)
	}

	// Deal the cubes in contiguous blocks: neighbouring cubes share a
	// path prefix, so a worker draining its block front-to-back keeps
	// re-using the clauses it just learnt.
	for i := range cubes {
		e.deques[i*w/len(cubes)].items = append(e.deques[i*w/len(cubes)].items, i)
	}

	defer conc.OnDone(ctx, func() { e.fail(core.StopInterrupted) })()

	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.worker(i)
		}(i)
	}
	wg.Wait()

	res = Result{
		Cubes:   len(cubes),
		Refuted: cuber.refuted,
		Solved:  int(e.solved.Load()),
		Steals:  int(e.steals.Load()),
	}
	for _, s := range e.solvers {
		st := s.Stats()
		res.Conflicts += st.Conflicts
		res.Shared += st.ExportedClauses
	}
	switch {
	case e.winner.Load() >= 0:
		res.Status = core.StatusSat
		res.Model = e.model
	case e.failRes != core.StopNone:
		res.Status = core.StatusUnknown
		res.Stop = e.failRes
	default:
		res.Status = core.StatusUnsat
		if opt.Proof != nil {
			segs := make([][]byte, w)
			for i, tr := range traces {
				segs[i] = tr.Bytes()
			}
			stitch(opt.Proof, segs, root)
		}
	}
	return res
}
