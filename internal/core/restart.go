package core

// restart abandons the current search tree (keeping level-0 assignments,
// the paper's "retained assignments") and runs clause-database management
// before the next iteration begins (§8). The paper describes BerkMin's
// restart strategy as "very primitive (being close to random)"; the default
// policy restarts every RestartFirst conflicts with a random jitter.
func (s *Solver) restart() {
	s.stats.Restarts++
	s.sinceRestart = 0
	s.cancelUntil(0)
	s.reduceDB()
	// Inprocessing (an extension; inprocess.go) piggybacks on the restart
	// boundary: the solver is at level 0 with its data structures freshly
	// recomputed, exactly the state the passes need.
	if s.ok && s.opt.InprocessPeriod > 0 {
		s.sinceInprocess++
		if s.sinceInprocess >= s.opt.InprocessPeriod {
			s.inprocess()
		}
	}
	s.restartLimit = s.nextRestartLimit()
}

// Restart postponement (Options.RestartPostpone): a due restart is re-armed
// while the average glue of the last postponeWindow learnt clauses runs
// below postponeFactor times the lifetime average. maxPostponeStreak bounds
// consecutive postponements so database management (which only runs at
// restarts) can never be starved forever by a long streak of low-glue
// conflicts.
const (
	postponeFactor    = 0.8
	postponeWindow    = 50
	maxPostponeStreak = 16
)

// noteGlue records a freshly learnt clause's glue for the postponement
// rule: the ring holds the last postponeWindow glues, and the lifetime
// totals live in Stats (GlueSum / LearntTotal).
func (s *Solver) noteGlue(glue int) {
	s.stats.GlueSum += uint64(glue)
	if s.recentGlue == nil {
		return
	}
	s.recentGlueSum += int64(glue) - int64(s.recentGlue[s.recentGluePos])
	s.recentGlue[s.recentGluePos] = int32(glue)
	s.recentGluePos++
	if s.recentGluePos == len(s.recentGlue) {
		s.recentGluePos = 0
	}
	if s.recentGlueN < len(s.recentGlue) {
		s.recentGlueN++
	}
}

// postponeRestart reports whether a due restart should be re-armed instead
// of taken: the window must be full and its average glue must run below
// postponeFactor times the lifetime average — the search is currently
// producing better-than-usual clauses, so abandoning the descent would
// throw that locality away. The streak cap guarantees restarts (and the
// database management they carry) still happen.
func (s *Solver) postponeRestart() bool {
	if !s.opt.RestartPostpone || s.postponeStreak >= maxPostponeStreak {
		return false
	}
	if s.recentGlueN < len(s.recentGlue) || s.stats.LearntTotal == 0 {
		return false
	}
	recent := float64(s.recentGlueSum) / float64(s.recentGlueN)
	lifetime := float64(s.stats.GlueSum) / float64(s.stats.LearntTotal)
	return recent < postponeFactor*lifetime
}

// nextRestartLimit computes the conflict interval until the next restart
// according to the configured policy, advancing the policy's position in
// its sequence (geometric growth, Luby index).
func (s *Solver) nextRestartLimit() int {
	switch s.opt.Restart {
	case RestartGeometric:
		// geomLimit carries the growing interval across restarts, so the
		// total cost over R restarts is O(R) instead of the O(R²) of
		// recomputing the power series from scratch each time.
		limit := s.geomLimit
		if limit > 1e9 {
			limit = 1e9
		}
		s.geomLimit = limit * s.opt.RestartFactor
		if s.geomLimit > 1e9 {
			s.geomLimit = 1e9
		}
		return int(limit)
	case RestartLuby:
		s.lubyIndex++
		return s.opt.RestartFirst * luby(s.lubyIndex)
	case RestartNever:
		return 1 << 30
	default: // RestartFixed with jitter
		limit := s.opt.RestartFirst
		if j := s.opt.RestartJitter; j > 0 {
			limit += s.rng.intn(2*j+1) - j
		}
		if limit < 1 {
			limit = 1
		}
		return limit
	}
}

// luby returns the i-th element (1-based) of the Luby sequence
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
func luby(i int) int {
	// Find the subsequence the index falls into.
	k := 1
	for (1<<k)-1 < i {
		k++
	}
	for {
		if (1<<k)-1 == i {
			return 1 << (k - 1)
		}
		i -= (1 << (k - 1)) - 1
		k = 1
		for (1<<k)-1 < i {
			k++
		}
	}
}
