package core

// Solver lifecycle: cheap reuse of a loaded formula.
//
// The Solver's state splits into two planes (see the field groups in
// solver.go). The FORMULA PLANE is everything determined by the clauses
// fed through AddClause/AddFormula and their level-0 closure: the clause
// arena and problem-clause list, the binary occurrence lists, the level-0
// trail (unit clauses are never stored as clauses — they live only as
// retained level-0 assignments, so the trail prefix IS part of the loaded
// formula), and the ok flag. The SEARCH PLANE is everything the CDCL loop
// accumulates on top: learnt clauses and their tier gauges, activities,
// phases, the decision heap, restart/aging/inprocessing positions, the
// PRNG, and Stats.
//
// Reset drops the search plane and keeps the formula plane, so a query
// stream (many SolveAssuming calls against one instance) pays clause
// ingestion and preprocessing once instead of per query. Clone copies
// both planes into an independent Solver (the binary-clause lists
// copy-on-write), so N clones can solve concurrently — the seam the
// portfolio and the cube-and-conquer workers build on. Reconfigure swaps the Options of an
// existing (typically just-cloned) solver, re-arming the policy state the
// new configuration needs — together Clone+Reconfigure turn one loaded
// master into a diversified portfolio without re-feeding a single clause.

import (
	"berkmin/internal/cnf"
)

// Reset drops all search state — learnt clauses, activities, saved phases,
// restart/aging positions, statistics — while keeping the loaded formula:
// the clause arena is not rebuilt and the retained level-0 assignments
// (including every unit clause ever added or learnt) survive. After Reset
// the solver behaves like a freshly constructed one that was just fed the
// same clauses; in particular Stats starts a new lifetime (zeroed, as in
// New) rather than continuing the incremental accumulation documented on
// Stats. Clauses added after construction remain loaded, so Reset also
// marks the boundary between queries in an incremental stream.
//
// Reset reaches a steady state with no allocations: the watch, occurrence
// and heap storage is truncated and refilled in place, and the arena is
// only compacted when enough learnt-clause space was freed to matter
// (see BenchmarkReset).
func (s *Solver) Reset() {
	s.dropSearch()
	s.rebuildPostLoad()
}

// dropSearch is Reset's first half: it abandons the search (interrupt,
// queued imports, decision levels) at the level-0 fixpoint and frees every
// learnt clause. The watch lists still name the freed clauses until
// rebuildPostLoad.
func (s *Solver) dropSearch() {
	s.ClearInterrupt()
	// Queued foreign clauses belong to the search being abandoned; drop
	// them rather than integrate them into the fresh lifetime.
	s.importMu.Lock()
	s.importQ = nil
	s.importPending.Store(0)
	s.importMu.Unlock()

	s.cancelUntil(0)
	// Reach the level-0 fixpoint so the watch rebuild below sees a
	// consistent assignment (a no-op after a completed Solve call).
	if s.ok {
		if confl := s.propagate(); confl != refUndef {
			s.ok = false
			s.proof.Add(nil)
		}
	}

	// Drop every learnt clause. Level-0 antecedents may point into the
	// learnt set, so they are cleared first (the assignments themselves are
	// formula plane and stay). Deletion lines keep an attached DRUP trace
	// valid across the Reset: learnt units stay asserted on the trail and
	// their addition lines remain, which a checker accepts.
	s.clearLevel0Reasons()
	for _, c := range s.learnts {
		s.proof.Delete(s.ca.lits(c))
		s.ca.free(c)
	}
	s.learnts = s.learnts[:0]
	s.top.rewritten()
}

// rebuildPostLoad is Reset's second half: a new Stats lifetime, the watch
// (and, if stale, binary-partner) lists rebuilt over the problem clauses,
// and the search-plane and heuristic state of a fresh construction.
func (s *Solver) rebuildPostLoad() {
	// New Stats lifetime. Zero before the rebuilds so the BinClauses gauge
	// and any arena compaction are accounted to it. With the learnt stack
	// empty the zeroed tier gauges are already exact, and the binary
	// partner lists only need a rebuild if a problem binary changed.
	s.stats = Stats{}
	s.maybeGC()
	s.rebuildWatches()
	s.refreshBinOcc()
	s.notePeak()
	s.simpTrail = -1

	// Search-plane per-variable and per-literal state (lUndef is the zero
	// lbool, so clear resets phases too).
	clear(s.phase)
	clear(s.glueSeen)
	s.glueStamp = 0
	s.lastGlue = 0

	// Restart the heuristic lifetime: activities cleared, reward schedules
	// re-armed, pick structures rebuilt.
	s.dec.reset()

	s.resetPolicyState()
}

// DropGroups is Reset for a solver whose only change since it was derived
// is clause groups it minted: every group above the first keep is released
// and its clauses reaped, every variable above nVars is forgotten, and the
// solver is then reset as by Reset — with one watch rebuild for both. The
// level-0 trail entries of the dropped variables are removed, and the
// per-variable and per-literal arrays, the decider, the group table and
// groupOf shrink by length with their capacity kept, so minting the same
// groups again allocates no per-variable storage. The variables above
// nVars must be the dropped groups' activation variables or variables
// that only their clauses (or assumptions) mention; snapshot pools recycle
// temp-group query solvers through it.
//
// It reports false, and does not reset, when the solver is or becomes dead
// (level-0 UNSAT): such a solver is to be discarded. Must be called
// between Solve calls.
func (s *Solver) DropGroups(keep, nVars int) bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	for g := keep + 1; g <= len(s.groups); g++ {
		s.ReleaseGroup(GroupID(g))
	}
	if !s.ok {
		return false
	}
	s.dropSearch()
	if !s.ok {
		return false
	}
	// With the learnt stack empty, the level-0 pass reaps exactly the
	// released groups' clauses (and anything the query's units satisfied).
	s.simplifyLevel0()
	if !s.ok {
		return false
	}
	s.pendingReleases = 0
	for _, info := range s.groups[keep:] {
		delete(s.groupOf, info.act)
	}
	s.groups = s.groups[:keep]
	s.truncateVars(nVars)
	s.rebuildPostLoad()
	return true
}

// truncateVars forgets every variable above n: their level-0 trail entries
// are removed (units the simplification pass left unpropagated stay
// pending) and every per-variable and per-literal array is cut back by
// length, keeping capacity. No clause may mention a variable above n, and
// the watch lists must be rebuilt before the next propagation.
func (s *Solver) truncateVars(n int) {
	if n >= s.nVars {
		return
	}
	kept, qhead := s.trail[:0], 0
	for i, l := range s.trail {
		if int(l.Var()) > n {
			continue
		}
		kept = append(kept, l)
		if i < s.qhead {
			qhead++
		}
	}
	s.trail, s.qhead = kept, qhead
	s.simpTrail = -1

	s.nVars = n
	s.vlevel = s.vlevel[:n+1]
	s.reason = s.reason[:n+1]
	s.binReason = s.binReason[:n+1]
	s.seen = s.seen[:n+1]
	s.phase = s.phase[:n+1]
	s.glueSeen = s.glueSeen[:min(len(s.glueSeen), n+1)]
	s.vals = s.vals[:2*n+2]
	s.watches = s.watches[:2*n+2]
	s.binWatches = s.binWatches[:2*n+2]
	s.binOcc = s.binOcc[:2*n+2]
	s.dec.truncate(n)
}

// resetPolicyState arms everything derived from the Options — restart
// sequence position, database-management thresholds, the PRNG, the
// restart-postponement window — as a fresh construction does. Shared by
// New, Reset (same Options) and Reconfigure (new Options, already
// installed and normalized).
func (s *Solver) resetPolicyState() {
	s.rng = newXorshift(s.opt.Seed)
	s.geomLimit = float64(s.opt.RestartFirst)
	s.lubyIndex = 0
	s.restartLimit = s.nextRestartLimit()
	s.tieredTarget = tieredFirstReduce
	s.oldThreshold = oldThresholdInit
	s.sinceRestart = 0
	s.sinceAging = 0
	s.sinceMark = 0
	s.sinceInprocess = 0
	s.sinceTimeCheck = 0
	s.vivifyHead = 0
	s.noPhaseSave = false
	s.postponeStreak = 0
	// Query-stream positions: a reset (or reconfigured) solver starts a
	// fresh stream, so the next solve counts as its first query and the
	// previous lifetime's core is gone. The group table itself is formula
	// plane and survives — only the stream position restarts.
	s.queriesSeen = 0
	s.lastCore = nil
	s.lastFailed = nil
	if s.opt.RestartPostpone {
		if s.recentGlue == nil {
			s.recentGlue = make([]int32, postponeWindow)
		}
		clear(s.recentGlue)
	} else {
		s.recentGlue = nil
	}
	s.recentGluePos = 0
	s.recentGlueSum = 0
	s.recentGlueN = 0
}

// Clone returns an independent copy of the solver: the clause arena,
// watch lists, trail, activities, learnt database and statistics are all
// copied, so the clone and the original (and any number of sibling
// clones) may solve concurrently. The binary-clause lists (binWatches,
// binOcc) are the one exception: the clone and the original both read
// them in place, and each side copies them before its own first change
// (ownBinWatches, ownBinOcc). Propagation and nbTwo only read them, so a
// short query that learns no binary clause and restores none never pays
// for the copy. Clone must be called between Solve calls — never while
// the solver is searching — and a solver that is not being changed may
// be cloned from several goroutines at once.
//
// The copy is an identical twin: same Options (including Seed), same
// learnt clauses, same activities, so two clones run the same search until
// something differentiates them. Use Reconfigure to give a clone its own
// configuration and seed.
//
// Per-solver wiring does NOT carry over: the clone has no proof writer
// (interleaving two solvers' DRUP events in one trace would corrupt it —
// call SetProofWriter on the clone if needed), no learnt-export hook, no
// queued imports, no pending Interrupt and no debug hooks.
func (s *Solver) Clone() *Solver {
	// The arena gets a little headroom: a clone's first solve appends
	// learnt and restored clauses, and an arena sized to its length would
	// be copied whole by the first of them.
	arena := make([]uint32, len(s.ca.data), len(s.ca.data)+len(s.ca.data)/16+64)
	copy(arena, s.ca.data)
	c := &Solver{
		opt: s.opt,

		nVars:   s.nVars,
		ca:      clauseArena{data: arena, wasted: s.ca.wasted},
		clauses: append([]clauseRef(nil), s.clauses...),
		learnts: append([]clauseRef(nil), s.learnts...),

		watches: cloneLists(s.watches),

		vals:      append([]lbool(nil), s.vals...),
		vlevel:    append([]int32(nil), s.vlevel...),
		reason:    append([]clauseRef(nil), s.reason...),
		binReason: append([]cnf.Lit(nil), s.binReason...),
		trail:     append([]cnf.Lit(nil), s.trail...),
		trailLim:  append([]int(nil), s.trailLim...),
		qhead:     s.qhead,

		phase: append([]lbool(nil), s.phase...),

		seen:      append([]bool(nil), s.seen...),
		glueSeen:  append([]uint32(nil), s.glueSeen...),
		glueStamp: s.glueStamp,
		lastGlue:  s.lastGlue,

		recentGlue:     append([]int32(nil), s.recentGlue...),
		recentGluePos:  s.recentGluePos,
		recentGlueSum:  s.recentGlueSum,
		recentGlueN:    s.recentGlueN,
		postponeStreak: s.postponeStreak,

		tieredTarget: s.tieredTarget,

		binOccStale: s.binOccStale,
		simpTrail:   -1,

		groups:          append([]groupInfo(nil), s.groups...),
		pendingReleases: s.pendingReleases,
		lastCore:        append([]GroupID(nil), s.lastCore...),
		lastFailed:      append([]cnf.Lit(nil), s.lastFailed...),
		queriesSeen:     s.queriesSeen,
		shrinkBudget:    s.shrinkBudget,

		rng: s.rng,

		ok:             s.ok,
		sinceTimeCheck: s.sinceTimeCheck,
		restartLimit:   s.restartLimit,
		lubyIndex:      s.lubyIndex,
		geomLimit:      s.geomLimit,
		sinceRestart:   s.sinceRestart,
		sinceAging:     s.sinceAging,
		sinceMark:      s.sinceMark,
		sinceInprocess: s.sinceInprocess,
		vivifyHead:     s.vivifyHead,
		noPhaseSave:    s.noPhaseSave,
		oldThreshold:   s.oldThreshold,

		stats: s.stats,
	}
	// Stats is a value copy except for the skin histogram's backing array.
	c.stats.Skin.Counts = append([]uint64(nil), s.stats.Skin.Counts...)
	if s.groupOf != nil {
		c.groupOf = make(map[cnf.Var]GroupID, len(s.groupOf))
		for v, g := range s.groupOf {
			c.groupOf[v] = g
		}
	}
	// The branching plane carries its own state (activities, heaps, reward
	// accounting); its clone rebinds every internal pointer to the copy.
	c.dec = s.dec.clone(c)
	// Both sides now read the binary-clause lists in place. Concurrent
	// clones of one solver all store true, so the marks are atomic.
	c.binWatches, c.binOcc = s.binWatches, s.binOcc
	c.binWatchesShared.Store(true)
	c.binOccShared.Store(true)
	s.binWatchesShared.Store(true)
	s.binOccShared.Store(true)
	return c
}

// Reconfigure swaps the solver's Options in place, re-arming every piece
// of policy state the configuration drives: the restart sequence restarts
// from its new first interval, database-management thresholds reset, the
// PRNG is reseeded with the new Seed, the strategy-3 heap and the
// postponement window are built or torn down as the new configuration
// requires, and learnt clauses are re-tiered from their glue.
// Loaded clauses, learnt clauses, activities and Stats are all kept — it
// reconfigures, it does not Reset. Must be called between Solve calls.
//
// The intended idiom is portfolio fan-out from one loaded master:
//
//	w := master.Clone()
//	w.Reconfigure(cfg)   // cfg differs in heuristics and Seed
//	go w.Solve()
func (s *Solver) Reconfigure(opt Options) {
	opt.normalize()
	oldDecision := s.opt.Decision
	s.opt = opt
	for _, c := range s.learnts {
		t := s.tierFor(s.ca.glue(c), s.ca.size(c))
		s.ca.setTier(c, t)
	}
	s.recountTiers()
	s.resetPolicyState()
	if sameDeciderFamily(oldDecision, opt.Decision) {
		// Same decider implementation: keep its heuristic state, re-arm its
		// policy (pick structures, reward schedules) for the new options.
		s.dec.reconfigure()
	} else {
		// Crossing decider families starts a fresh heuristic lifetime —
		// activities do not translate between, say, integer BerkMin counters
		// and LRB's reward averages.
		s.dec = newDecider(s)
		s.dec.rebuild(s.nVars)
	}
}

// ownBinWatches gives the solver its own copy of binWatches if a Clone
// left them shared; every change to the lists goes through it first.
func (s *Solver) ownBinWatches() {
	if s.binWatchesShared.Load() {
		s.binWatches = cloneLists(s.binWatches)
		s.binWatchesShared.Store(false)
	}
}

// ownBinOcc is ownBinWatches for binOcc.
func (s *Solver) ownBinOcc() {
	if s.binOccShared.Load() {
		s.binOcc = cloneLists(s.binOcc)
		s.binOccShared.Store(false)
	}
}

// cloneLists deep-copies a per-literal list-of-lists (watches, binary
// watches, occurrence lists) so the copy shares no memory with the
// original. The inner lists are packed into one fresh slab, sliced with
// full capacity so a later append to any inner list reallocates instead of
// clobbering its neighbor.
func cloneLists[T any](src [][]T) [][]T {
	total := 0
	for _, l := range src {
		total += len(l)
	}
	slab := make([]T, 0, total)
	out := make([][]T, len(src))
	for i, l := range src {
		if len(l) == 0 {
			continue
		}
		start := len(slab)
		slab = append(slab, l...)
		out[i] = slab[start:len(slab):len(slab)]
	}
	return out
}
