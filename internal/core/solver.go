// Package core implements the paper's contribution: the BerkMin CDCL
// SAT-solver. The engine provides two-watched-literal Boolean constraint
// propagation (the SATO/Chaff technique, §2), first-UIP conflict analysis
// with responsible-clause tracking (§2, §4), non-chronological backtracking
// (GRASP), restarts, and BerkMin's decision-making and clause-database
// management (§4–§8). Every heuristic the paper measures — including all of
// its ablations (Less_sensitivity, Less_mobility, the Table 4 branch
// selection variants, Limited_keeping) and the zChaff-like and limmat-like
// comparison configurations — is an Options setting of the same engine.
package core

import (
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"berkmin/internal/cnf"
)

// Status is a solver verdict.
type Status int

const (
	// StatusUnknown means a resource limit was hit before an answer.
	StatusUnknown Status = iota
	// StatusSat means a satisfying assignment was found.
	StatusSat
	// StatusUnsat means the formula was proven unsatisfiable.
	StatusUnsat
)

func (s Status) String() string {
	switch s {
	case StatusSat:
		return "SATISFIABLE"
	case StatusUnsat:
		return "UNSATISFIABLE"
	default:
		return "UNKNOWN"
	}
}

// Result is the outcome of a Solve call.
type Result struct {
	Status Status
	// Stop says why the call returned: StopNone for a definitive answer,
	// otherwise the limit hit (conflicts / decisions / time) or
	// StopInterrupted for an external Interrupt.
	Stop StopReason
	// Model is the satisfying assignment when Status == StatusSat;
	// Model[v] is the value of variable v (index 0 unused).
	Model []bool
	// FailedAssumptions, for an UNSAT answer from SolveAssuming, holds a
	// subset of the assumptions that is already contradictory with the
	// formula (together with any live clause groups — see UnsatCore for
	// the group side). Empty when the formula is unsatisfiable on its own.
	// Order contract: each failed assumption appears exactly once, in the
	// order of its first occurrence in the caller's assumption list —
	// duplicate assumptions are reported once, and complementary
	// assumptions (p and ¬p both assumed) are two distinct entries.
	FailedAssumptions []cnf.Lit
	// Stats describes the run.
	Stats Stats
}

// Solver is a CDCL SAT solver. Create one with New, add clauses with
// AddClause or AddFormula, then call Solve. A Solver is not safe for
// concurrent use.
//
// The fields are grouped into two planes (plus configuration/wiring); the
// split is what makes the lifecycle operations of reuse.go cheap and
// correct. The FORMULA PLANE is a function of the clauses ever added: it
// survives Reset untouched, so a reset solver re-searches the same loaded
// formula without re-ingesting it. The SEARCH PLANE is what the CDCL loop
// accumulates while solving: Reset discards it wholesale. Clone deep-copies
// both planes (no mutable memory is shared), and the watch/occurrence lists
// straddle the line deliberately — their structure is formula-determined
// but their contents include learnt clauses, so Reset rebuilds them in
// place after dropping the learnt database.
type Solver struct {
	opt Options

	// ---- Formula plane: determined by the added clauses; kept by Reset.
	// The trail's level-0 prefix belongs here too (declared with the search
	// plane because its upper levels are search state): unit clauses are
	// never stored in the arena — they exist only as retained level-0
	// assignments, so dropping them would lose part of the formula.
	nVars   int
	ca      clauseArena // flat storage for every clause (arena.go)
	clauses []clauseRef // problem clauses (physically shrunk by simplification)

	// binOcc[l] lists the partner literal of every live binary *problem*
	// clause (l ∨ partner) — the incrementally maintained §7 nb_two
	// structure: len(binOcc[l]) is the O(1) count of binary clauses
	// containing l, and the entries are the one short walk nbTwo needs
	// (decide.go). Maintained by addBinOcc/rebuildBinOcc; clauses removed
	// or strengthened to binary by simplification and inprocessing migrate
	// via the wholesale rebuild those passes already end with.
	binOcc [][]cnf.Lit

	ok bool // false once UNSAT is established at level 0 (a formula property)

	// Clause groups (groups.go): the group table maps GroupIDs to their
	// activation variables and release state — formula plane, like the
	// level-0 release units it generates. pendingReleases counts releases
	// whose clauses have not been physically reaped yet (done lazily at
	// the next solve entry).
	groups          []groupInfo
	groupOf         map[cnf.Var]GroupID // activation variable → its group
	pendingReleases int

	// ---- Watch lists: formula-shaped, search-filled. Indexed per literal
	// like binOcc, but entries cover learnt clauses too, so Reset rebuilds
	// them (in place, reusing the backing storage) rather than keeping them.
	watches    [][]watcher    // watches[l]: clauses of >= 3 literals currently watching literal l
	binWatches [][]binWatcher // binWatches[l]: live binary clauses (l ∨ other); falsifying l implies other

	// ---- Search plane: accumulated by the CDCL loop; dropped by Reset.
	learnts []clauseRef // conflict-clause stack, index = age, top = end

	vals      []lbool     // per literal: vals[l] == -vals[l^1]; value(l) is one load
	vlevel    []int32     // per variable: decision level of its assignment
	reason    []clauseRef // per variable: antecedent clause (refUndef for decisions, refBin for binary implications)
	binReason []cnf.Lit   // per variable: the implying (false) literal when reason is refBin
	trail     []cnf.Lit   // level-0 prefix is formula plane (see above)
	trailLim  []int
	qhead     int

	phase []lbool // per variable: last assigned polarity (Options.PhaseSaving)

	// dec is the branching plane (decider.go): variable selection, polarity,
	// activities and their decay all live behind it. It hears of the trail
	// once per backtrack (onBacktrack), never per assignment, so BCP makes
	// no decider call. anteBin is the scratch slice for reporting
	// literal-encoded binary antecedents.
	dec     decider
	anteBin [2]cnf.Lit

	seen       []bool    // conflict-analysis scratch, per variable
	analyzeBuf []cnf.Lit // conflict-analysis scratch

	// Glue (LBD) computation scratch: glueSeen[level] == glueStamp marks a
	// decision level already counted in the current computeGlue call, so
	// one glue computation is a single pass with no clearing (analyze.go).
	glueSeen  []uint32
	glueStamp uint32
	lastGlue  int // glue of the most recently analyzed learnt clause

	// Restart postponement (Options.RestartPostpone): ring buffer of the
	// last postponeWindow learnt-clause glues, compared against the
	// lifetime average (Stats.GlueSum / Stats.LearntTotal).
	recentGlue     []int32
	recentGluePos  int
	recentGlueSum  int64
	recentGlueN    int
	postponeStreak int // consecutive postponements, capped by maxPostponeStreak

	tieredTarget int     // learnt count triggering the next LOCAL halving (ReduceTiered)
	tierCand     []int32 // reduceTiered candidate scratch, reused across cleanings

	// Incremental query-stream state (groups.go, assume.go): the last
	// UNSAT answer's core, the between-query decay counter driving the
	// decider's onNewQuery hook, the failed-assumption shrink budget, and
	// the scratch buffer for prepending live-group activation literals.
	lastCore       []GroupID
	lastFailed     []cnf.Lit
	queriesSeen    uint64
	shrinkBudget   uint64
	groupAssumpBuf []cnf.Lit

	// Inprocessing scratch (inprocess.go), reused so steady-state passes
	// allocate nothing: work list, per-literal occurrence index, size
	// order, vivification literal buffers, proof-deletion snapshot.
	inpWork  []inpClause
	inpOcc   [][]int32
	inpOrder []int32
	inpLits  []cnf.Lit
	inpKeep  []cnf.Lit
	inpSnap  []cnf.Lit

	rng xorshift

	// ---- Configuration and wiring: per-solver hooks that deliberately do
	// NOT travel with Clone (see reuse.go).
	// debugLearnt, when set, observes every learnt clause before it is
	// recorded (test hook); debugConflict observes every conflict before
	// analysis.
	debugLearnt   func([]cnf.Lit)
	debugConflict func(clauseRef)

	// Cross-thread communication. interrupted is the only field of the
	// solver that may be touched from another goroutine without the import
	// mutex; everything else remains single-threaded.
	interrupted   atomic.Bool
	importMu      sync.Mutex
	importQ       []importedClause
	importPending atomic.Int32
	exportFn      func(lits []cnf.Lit, glue int)

	sinceTimeCheck uint64
	restartLimit   int     // conflicts until next restart
	lubyIndex      int     // position in the Luby sequence (RestartLuby)
	geomLimit      float64 // current interval of the geometric sequence (RestartGeometric)
	sinceRestart   uint64
	sinceAging     uint64
	sinceMark      int
	sinceInprocess int   // restarts since the last inprocessing pass
	vivifyHead     int   // round-robin cursor over the learnt stack (vivification)
	noPhaseSave    bool  // suppress phase saving for artificial assignments (vivification)
	oldThreshold   int64 // ReduceBerkMin's growing old-clause activity threshold
	stats          Stats
	deadline       time.Time
	proof          io.Writer // optional DRUP proof log
	proofBuf       []byte    // reusable DRUP line buffer (drup.AppendLine)
}

// New returns a Solver with the given options.
func New(opt Options) *Solver {
	opt.normalize()
	s := &Solver{opt: opt, ok: true}
	s.dec = newDecider(s)
	s.resetPolicyState()
	return s
}

// SetProofWriter directs a DRUP proof of unsatisfiability to w. Must be
// called before any AddClause. Clause learning, deletion and
// strengthening events are logged; a final empty clause is emitted when
// the solver answers UNSAT. The proof can be validated with package drup.
func (s *Solver) SetProofWriter(w io.Writer) { s.proof = w }

// NumVars returns the number of variables the solver knows about.
func (s *Solver) NumVars() int { return s.nVars }

// ensureVars grows the per-variable and per-literal arrays to hold
// variables 1..n.
func (s *Solver) ensureVars(n int) {
	if n <= s.nVars {
		return
	}
	s.nVars = n
	add := n + 1 - len(s.vlevel)
	s.vlevel = appendN(s.vlevel, add, 0)
	s.reason = appendN(s.reason, add, refUndef)
	s.binReason = appendN(s.binReason, add, cnf.LitUndef)
	s.seen = appendN(s.seen, add, false)
	s.phase = appendN(s.phase, add, lUndef)
	// glueSeen is indexed by decision level, which never exceeds the
	// variable count; growing it in lockstep keeps computeGlue
	// allocation-free.
	s.glueSeen = appendN(s.glueSeen, add, 0)
	addLit := 2*n + 2 - len(s.watches)
	s.vals = appendN(s.vals, addLit, lUndef)
	s.watches = appendN(s.watches, addLit, nil)
	s.binWatches = appendN(s.binWatches, addLit, nil)
	s.binOcc = appendN(s.binOcc, addLit, nil)
	s.dec.rebuild(n)
}

// appendN appends k copies of x to xs with at most one reallocation.
func appendN[T any](xs []T, k int, x T) []T {
	if k <= 0 {
		return xs
	}
	xs = slices.Grow(xs, k)
	for range k {
		xs = append(xs, x)
	}
	return xs
}

// value returns the literal's current three-valued truth value.
func (s *Solver) value(l cnf.Lit) lbool { return s.vals[l] }

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddFormula adds every clause of f.
func (s *Solver) AddFormula(f *cnf.Formula) {
	s.ensureVars(f.NumVars)
	for _, c := range f.Clauses {
		s.AddClause(c)
	}
}

// AddClause adds a problem clause. It must be called before Solve.
// Tautologies are dropped, duplicate literals merged; an empty clause makes
// the problem unsatisfiable.
func (s *Solver) AddClause(c cnf.Clause) {
	if !s.ok {
		return
	}
	out, keep := s.reduceAtRoot(c.Clone())
	if !keep {
		return
	}
	switch len(out) {
	case 0:
		s.ok = false
		s.proofEmpty()
		return
	case 1:
		if !s.enqueue(out[0], refUndef) {
			s.ok = false
			s.proofEmpty()
			return
		}
		if confl := s.propagate(); confl != refUndef {
			s.ok = false
			s.proofEmpty()
		}
		return
	}
	cl := s.ca.alloc(out, false)
	s.clauses = append(s.clauses, cl)
	s.attach(cl)
	s.addBinOcc(cl)
}

// reduceAtRoot normalizes c in place against the level-0 assignment,
// growing the variable arrays to cover it: duplicate literals merge and
// literals false at level 0 drop. keep is false for a tautology and for a
// clause already satisfied at level 0, which need not be stored.
func (s *Solver) reduceAtRoot(c cnf.Clause) (out cnf.Clause, keep bool) {
	if v := int(c.MaxVar()); v > s.nVars {
		s.ensureVars(v)
	}
	norm, taut := c.Normalize()
	if taut {
		return nil, false
	}
	out = norm[:0]
	for _, l := range norm {
		switch s.value(l) {
		case lTrue:
			return nil, false
		case lUndef:
			out = append(out, l)
		}
	}
	return out, true
}

// attach registers a clause in its tier: binary clauses go to the
// per-literal implication lists (both literals are "watched" for free),
// longer clauses watch their first two literals. The BinClauses gauge
// counts binary-tier attachments; rebuildWatches resets it, which also
// absorbs clauses freed without a detach (level-0 simplification,
// subsumption) — every such pass ends in a rebuild.
func (s *Solver) attach(c clauseRef) {
	lits := s.ca.lits(c)
	if len(lits) == 2 {
		s.binWatches[lits[0]] = append(s.binWatches[lits[0]], binWatcher{lits[1], c})
		s.binWatches[lits[1]] = append(s.binWatches[lits[1]], binWatcher{lits[0], c})
		s.stats.BinClauses++
		return
	}
	s.watches[lits[0]] = append(s.watches[lits[0]], watcher{c, lits[1]})
	s.watches[lits[1]] = append(s.watches[lits[1]], watcher{c, lits[0]})
}

// addBinOcc registers a binary problem clause in the nb_two partner lists
// (no-op for longer clauses and for learnt clauses — §7 counts clauses of
// the formula only, as the old occurrence lists did).
func (s *Solver) addBinOcc(c clauseRef) {
	lits := s.ca.lits(c)
	if len(lits) != 2 {
		return
	}
	s.binOcc[lits[0]] = append(s.binOcc[lits[0]], lits[1])
	s.binOcc[lits[1]] = append(s.binOcc[lits[1]], lits[0])
}

// enqueue records the assignment making l true, with the given antecedent.
// It returns false if l is already false (an immediate conflict).
func (s *Solver) enqueue(l cnf.Lit, from clauseRef) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	s.vals[l] = lTrue
	s.vals[l^1] = lFalse
	s.vlevel[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// enqueueBin records the assignment making l true with a binary antecedent
// (l ∨ from) whose other literal from is false: the reason is encoded as
// refBin plus the implying literal, so conflict analysis resolves it
// without an arena load. The caller must have established value(l) ==
// lUndef (the binary propagation loop and record do).
func (s *Solver) enqueueBin(l, from cnf.Lit) {
	v := l.Var()
	s.vals[l] = lTrue
	s.vals[l^1] = lFalse
	s.vlevel[v] = int32(s.decisionLevel())
	s.reason[v] = refBin
	s.binReason[v] = from
	s.trail = append(s.trail, l)
}

// newDecisionLevel opens a new decision level.
func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, len(s.trail))
	// Dummy assumption levels can push the decision level past the
	// variable count; keep the glue scratch (indexed by level) in step.
	if len(s.glueSeen) <= len(s.trailLim) {
		s.glueSeen = append(s.glueSeen, 0)
	}
}

// cancelUntil undoes every assignment above the given decision level.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	savePhase := s.opt.PhaseSaving && !s.noPhaseSave
	for _, l := range s.trail[bound:] {
		v := l.Var()
		if savePhase {
			s.phase[v] = s.vals[cnf.PosLit(v)]
		}
		s.vals[l] = lUndef
		s.vals[l^1] = lUndef
		s.reason[v] = refUndef
	}
	s.dec.onBacktrack(s.trail[bound:])
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	if s.qhead > bound {
		s.qhead = bound
	}
}

// liveClauses returns the number of clauses currently held.
func (s *Solver) liveClauses() int { return len(s.clauses) + len(s.learnts) }

func (s *Solver) notePeak() {
	if n := s.liveClauses(); n > s.stats.PeakLiveClauses {
		s.stats.PeakLiveClauses = n
	}
}

// Solve runs the CDCL search to completion or until a limit is exceeded.
// The solver remains usable afterwards: more clauses can be added and
// Solve (or SolveAssuming) called again, retaining everything learnt.
// Live clause groups (groups.go) are enforced automatically.
func (s *Solver) Solve() Result { return s.solve(s.withGroupAssumptions(nil)) }

func (s *Solver) solve(assumptions []cnf.Lit) (res Result) {
	start := time.Now()
	defer func() {
		s.cancelUntil(0) // leave the solver reusable (incremental mode)
		s.stats.Runtime = time.Since(start)
		res.Stats = s.stats
	}()

	if s.pendingReleases > 0 {
		s.reapReleased()
	}
	// A new query in an incremental stream: let the decider fade the
	// previous queries' influence (Options.QueryDecay; 0 keeps the legacy
	// carry-everything behavior, bit-for-bit).
	if s.queriesSeen > 0 && s.opt.QueryDecay > 0 && s.ok {
		s.dec.onNewQuery()
	}
	s.queriesSeen++
	s.lastCore = nil
	s.lastFailed = nil

	s.stats.InitialClauses = len(s.clauses)
	s.notePeak()
	// Re-arm the restart and aging intervals. A previous incremental call
	// that returned mid-interval (budget hit, interrupt) must not carry its
	// partial counts into this one, or the new search would restart — and
	// age every activity — almost immediately.
	s.sinceRestart = 0
	s.sinceAging = 0
	// The postponement streak is per-search heuristic state like the
	// interval counters: a previous call that ended mid-streak must not
	// suppress postponement at the start of this one.
	s.postponeStreak = 0
	if s.opt.Restart == RestartFixed {
		// Fixed intervals are positionless: draw a fresh jittered limit.
		// Geometric and Luby limits keep their current sequence position —
		// restartLimit already holds the interval in progress.
		s.restartLimit = s.nextRestartLimit()
	}
	if s.opt.MaxTime > 0 {
		s.deadline = start.Add(s.opt.MaxTime)
	} else {
		s.deadline = time.Time{}
	}
	if !s.ok {
		// The formula was refuted before this call (at load time, or in a
		// previous lifetime before this solver was cloned). Re-emit the
		// empty clause so a proof writer attached after the refutation —
		// e.g. on a Clone of a dead master, which never saw the original
		// event — still receives a complete trace; the level-0 refutation
		// is RUP against the formula, so a duplicate line stays valid.
		s.proofEmpty()
		return s.finish(StatusUnsat, nil)
	}

	for {
		if s.decisionLevel() == 0 && s.importPending.Load() != 0 {
			if !s.drainImports() {
				s.ok = false
				return s.finish(StatusUnsat, nil)
			}
		}
		confl := s.propagate()
		if confl != refUndef {
			s.stats.Conflicts++
			s.sinceRestart++
			s.sinceAging++
			if s.decisionLevel() == 0 {
				s.ok = false
				s.proofEmpty()
				return s.finish(StatusUnsat, nil)
			}
			learnt, btLevel := s.analyze(confl)
			s.dec.onConflict()
			// Backtracking below the assumption levels is fine: the decide
			// loop re-asserts assumptions, and a now-falsified assumption
			// is detected there (analyzeFinal).
			s.cancelUntil(btLevel)
			s.record(learnt)
			if s.sinceAging >= s.opt.AgingPeriod {
				s.sinceAging = 0
				s.dec.decay()
			}
			if r := s.stopRequested(); r != StopNone {
				return s.abort(r)
			}
			if s.opt.Restart != RestartNever && int(s.sinceRestart) >= s.restartLimit {
				if s.postponeRestart() {
					// The recent learnt clauses are unusually good: let the
					// current descent keep going and re-arm the interval.
					s.sinceRestart = 0
					s.postponeStreak++
					s.stats.PostponedRestarts++
				} else {
					s.postponeStreak = 0
					s.restart()
					if !s.ok {
						return s.finish(StatusUnsat, nil)
					}
				}
			}
			continue
		}
		if r := s.stopRequested(); r != StopNone {
			return s.abort(r)
		}
		// Assert pending assumptions before any free decision.
		var next cnf.Lit
		for next == cnf.LitUndef && s.decisionLevel() < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				s.newDecisionLevel() // dummy level keeps the indexing aligned
			case lFalse:
				// The raw analysis can name one assumption twice (reached
				// both as p and via the trail) and mixes group activation
				// literals with the caller's; partition into the group core
				// and a deduplicated, caller-ordered failed set (groups.go).
				raw := s.analyzeFinal(p)
				s.lastCore, s.lastFailed = s.partitionFailed(raw, assumptions)
				r := s.finish(StatusUnsat, nil)
				r.FailedAssumptions = s.lastFailed
				return r
			default:
				next = p
			}
		}
		if next == cnf.LitUndef {
			next = s.decide()
			if next == cnf.LitUndef {
				return s.finish(StatusSat, s.extractModel())
			}
		}
		s.stats.Decisions++
		s.newDecisionLevel()
		s.enqueue(next, refUndef)
	}
}

// finish records a definitive answer's stop reason and builds the Result.
func (s *Solver) finish(st Status, model []bool) Result {
	s.stats.Stop = StopNone
	return Result{Status: st, Stop: StopNone, Model: model, Stats: s.stats}
}

// abort records why the search is being cut short and returns Unknown.
func (s *Solver) abort(r StopReason) Result {
	s.stats.Stop = r
	return Result{Status: StatusUnknown, Stop: r, Stats: s.stats}
}

// stopRequested reports whether the search should stop now, and why. It is
// checked after every conflict and before every decision, which bounds the
// latency of an Interrupt by one propagation fixpoint. The wall-clock
// deadline is polled every 1024 checks — not every 1024 conflicts, so a
// conflict-sparse search (many decisions, few conflicts) still honors
// MaxTime with bounded overrun.
func (s *Solver) stopRequested() StopReason {
	if s.interrupted.Load() {
		return StopInterrupted
	}
	if s.opt.MaxConflicts > 0 && s.stats.Conflicts >= s.opt.MaxConflicts {
		return StopConflicts
	}
	if !s.deadline.IsZero() {
		s.sinceTimeCheck++
		if s.sinceTimeCheck&0x3FF == 1 && time.Now().After(s.deadline) {
			return StopTime
		}
	}
	return StopNone
}

// Interrupt asks a running Solve to return StatusUnknown with
// StopInterrupted as soon as possible. It is the only Solver method safe to
// call from another goroutine (besides Import), and is sticky: once set,
// every subsequent Solve returns immediately until ClearInterrupt is
// called. Interrupting before Solve starts is therefore race-free.
func (s *Solver) Interrupt() { s.interrupted.Store(true) }

// ClearInterrupt re-arms a solver that was interrupted, so it can be used
// incrementally again.
func (s *Solver) ClearInterrupt() { s.interrupted.Store(false) }

// Interrupted reports whether Interrupt has been called without a
// ClearInterrupt since. Like Interrupt it is safe from any goroutine;
// front-ends poll it to cancel work (e.g. preprocessing) that runs
// outside the search loop.
func (s *Solver) Interrupted() bool { return s.interrupted.Load() }

// Dead reports whether unsatisfiability has been established at level 0
// (an empty clause was added or derived): further clauses are no-ops and
// every solve answers UNSAT immediately.
func (s *Solver) Dead() bool { return !s.ok }

// SetMaxTime changes the per-call wall-clock budget (Options.MaxTime; 0 =
// unlimited). Must be called between Solve calls, from the solving
// goroutine. Front-ends use it to deduct time already spent preprocessing
// so the configured limit stays an end-to-end bound.
func (s *Solver) SetMaxTime(d time.Duration) { s.opt.MaxTime = d }

// ChargeRuntime adds externally spent wall-clock time (e.g. front-end
// preprocessing) to the most recent call's Runtime, keeping the Stats
// accessor consistent with the per-call end-to-end accounting.
func (s *Solver) ChargeRuntime(d time.Duration) { s.stats.Runtime += d }

// extractModel snapshots the current total assignment.
func (s *Solver) extractModel() []bool {
	m := make([]bool, s.nVars+1)
	for v := 1; v <= s.nVars; v++ {
		m[v] = s.vals[cnf.PosLit(cnf.Var(v))] == lTrue
	}
	return m
}

// Stats returns the statistics collected so far.
func (s *Solver) Stats() Stats { return s.stats }
