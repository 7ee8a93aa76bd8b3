package berkmin

import (
	"context"
	"sync"

	"berkmin/internal/cnf"
	"berkmin/internal/core"
)

// Snapshot is an immutable capture of a loaded (and, when SetSimplify is
// enabled, preprocessed) formula: a Solver that is only ever cloned and
// read, never solved on or changed. Taking one pays clause
// ingestion and preprocessing exactly once; every solver derived from it —
// NewSolver, a Pool, or SolveParallel's portfolio members — starts from an
// O(formula) clone instead of re-feeding and re-simplifying the input. A
// Snapshot is safe for concurrent use: its base is never solved on, only
// cloned and read (model reconstruction and verification), and derived
// solvers share no mutable state with it or with each other.
type Snapshot struct {
	base *Solver
}

// shallowFormula returns a read-only sharing copy of f: same backing
// arrays, full-cap slices so any append by the holder reallocates instead
// of clobbering siblings.
func shallowFormula(f *cnf.Formula) *cnf.Formula {
	return &cnf.Formula{
		NumVars:  f.NumVars,
		Clauses:  f.Clauses[:len(f.Clauses):len(f.Clauses)],
		Comments: f.Comments[:len(f.Comments):len(f.Comments)],
	}
}

// Snapshot captures the solver's current formula as an immutable snapshot.
// Pending preprocessing runs first (so it is paid here, once), and the
// solver itself remains fully usable and independent afterwards — the
// snapshot holds its own clone. Learnt clauses accumulated so far are
// carried into the snapshot and seed every derived solver.
func (s *Solver) Snapshot() *Snapshot { return &Snapshot{base: s.Clone()} }

// NumVars returns the number of variables in the snapshot's formula.
func (sn *Snapshot) NumVars() int { return sn.base.NumVars() }

// NewSolver returns a fresh solver loaded with the snapshot's formula.
// The call is O(formula) — no clause re-ingestion, no preprocessing — and
// the result shares no mutable state with the snapshot or its siblings, so
// solvers derived from one snapshot may run concurrently. The new solver
// supports the full incremental API (SolveAssuming, AddClause, further
// Solve calls); it starts without a proof writer. It is sn's base's
// Clone, so it reads the base's binary-clause lists in place until it
// first changes them.
func (sn *Snapshot) NewSolver() *Solver { return sn.base.Clone() }

// Reset returns the solver to its post-load state: search state (trail,
// heuristic activities, saved phases, restart/reduce schedules) and all
// learnt clauses are dropped, while the loaded formula — including clauses
// added after construction and any restored eliminations — is kept, with
// no re-ingestion or arena rebuild. Statistics begin a new lifetime (see
// Stats). With SetSimplify enabled and no solve yet run, pending
// preprocessing runs first so that "post-load state" is well defined.
func (s *Solver) Reset() {
	s.preprocess()
	s.core.Reset()
}

// Clone returns an independent copy of the solver: same formula, learnt
// clauses, heuristic state and statistics, sharing no mutable state with
// the original — the two may run concurrently from the moment Clone
// returns. The copy is cheap: the formula mirror is shared read-only, and
// the engine's binary-clause lists are copied only by the side that first
// changes them (core.Solver.Clone). Pending preprocessing runs first
// (charged to the original's first solve). The clone does not carry the
// proof writer: interleaving two searches into one DRUP trace would
// corrupt it, so attach a fresh writer to the clone if needed.
func (s *Solver) Clone() *Solver {
	s.preprocess()
	c := &Solver{
		core:      s.core.Clone(),
		pristine:  shallowFormula(s.pristine),
		verify:    s.verify,
		maxTime:   s.maxTime,
		fed:       true,
		inherited: core.GroupID(s.core.NumGroups()),
	}
	if s.view != nil {
		c.view = s.view.Clone()
	}
	return c
}

// Pool is a concurrency-safe free list of solvers derived from one
// Snapshot, for query streams that need a solver per request without
// paying a clone each time: Get hands out a reset solver (cloning a new
// one only when the pool is empty), Put resets and recycles it. Clause
// groups a query mints on its solver (temp clauses) do not stop the
// recycling: Put retires them and drops their activation variables.
type Pool struct {
	snap    *Snapshot
	mu      sync.Mutex
	free    []*Solver
	maxIdle int // cap on len(free); 0 = unlimited
	stats   PoolStats
}

// PoolStats describes a pool's recycling effectiveness. All counters are
// cumulative over the pool's lifetime.
type PoolStats struct {
	// Hits counts Get calls served from the free list; Misses counts Get
	// calls that had to derive a fresh solver from the snapshot.
	Hits, Misses uint64
	// Dropped counts Put calls that discarded the solver instead of
	// recycling it: a formula diverged beyond groups minted since Get
	// (AddClause, AddFormula, or a change to a snapshot-held group), an
	// attached proof writer, a solver refuted at level 0 while retiring its
	// groups, or the SetMaxIdle cap.
	Dropped uint64
	// Idle is the current free-list size (a gauge, not a counter).
	Idle int
}

// NewPool returns an empty pool over the snapshot.
func (sn *Snapshot) NewPool() *Pool { return &Pool{snap: sn} }

// SetMaxIdle caps the number of idle solvers the pool retains; Put drops
// excess solvers instead of recycling them. n <= 0 means unlimited (the
// default). Shrinking the cap takes effect lazily, at the next Put.
func (p *Pool) SetMaxIdle(n int) {
	p.mu.Lock()
	p.maxIdle = n
	p.mu.Unlock()
}

// Stats returns a point-in-time copy of the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	st := p.stats
	st.Idle = len(p.free)
	p.mu.Unlock()
	return st
}

// Get returns a solver loaded with the snapshot's formula, in post-load
// state — either recycled from a previous Put or freshly derived.
func (p *Pool) Get() *Solver {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.stats.Hits++
		p.mu.Unlock()
		return s
	}
	p.stats.Misses++
	p.mu.Unlock()
	return p.snap.NewSolver()
}

// Put recycles a solver obtained from Get, resetting it for the next
// caller — including clearing a pending Interrupt, so a solver whose last
// solve was cancelled (via Interrupt or a context) serves the next Get
// like a fresh one. Clause groups minted since Get, released or not, are
// retired: their clauses and activation variables are dropped and the
// solver returns to the snapshot's formula and variable count, so a
// temp-clause query is recycled like any other. Solvers that diverged
// otherwise — clauses added with AddClause or AddFormula, a snapshot-held
// group changed, or a proof writer attached — are dropped instead of
// recycled, so handing a modified solver back is safe but not a reuse.
func (p *Pool) Put(s *Solver) {
	if s == nil {
		return
	}
	if !p.recycle(s) {
		p.mu.Lock()
		p.stats.Dropped++
		p.mu.Unlock()
		return
	}
	p.mu.Lock()
	if p.maxIdle > 0 && len(p.free) >= p.maxIdle {
		p.stats.Dropped++
		p.mu.Unlock()
		return
	}
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// recycle returns s to the snapshot's post-load state, reporting false when
// it cannot be reused. Variables beyond the snapshot's (activation
// variables, or fresh variables an assumption named) are dropped along
// with the groups minted since Get; what preprocessing restored for a
// query stays, as it is the snapshot's formula in another form.
func (p *Pool) recycle(s *Solver) bool {
	base := p.snap.base
	groups := core.GroupID(base.core.NumGroups())
	if s.proofW != nil || s.inherited != groups ||
		len(s.pristine.Clauses)-s.tempClauses != len(base.pristine.Clauses) {
		return false
	}
	if s.core.NumGroups() == int(groups) && s.core.NumVars() == base.core.NumVars() {
		s.Reset()
		return true
	}
	if !s.core.DropGroups(int(groups), base.core.NumVars()) {
		return false
	}
	// The pristine mirror's tail holds the dropped groups' clauses and
	// release units; the snapshot's prefix is shared read-only, so the cut
	// keeps only storage this solver's appends allocated.
	s.pristine.Clauses = s.pristine.Clauses[:len(base.pristine.Clauses)]
	s.pristine.NumVars = base.pristine.NumVars
	s.tempClauses = 0
	return true
}

// SolveParallel races a portfolio of diversified configurations over the
// snapshot, like the package-level SolveParallel, but without re-paying
// preprocessing or clause ingestion: every member is a clone of the
// snapshot's base. opt.Simplify is ignored — the snapshot's own
// preprocessing (or lack of it) is what the members search on. The
// snapshot remains untouched and reusable.
func (sn *Snapshot) SolveParallel(opt ParallelOptions) ParallelResult {
	r, _ := sn.SolveParallelContext(context.Background(), opt)
	return r
}
