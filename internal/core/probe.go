package core

import "berkmin/internal/cnf"

// Lookahead probing hooks.
//
// The cube-and-conquer cuber (internal/cube) scores candidate splitting
// variables by assuming each polarity on a scratch clone and counting how
// far unit propagation cascades — the march-style "reduced clauses"
// measure. These hooks expose exactly the trail machinery that needs:
// push a decision level, assume-and-propagate, read the cascade size,
// retract. They are probing tools, not a public assumption interface
// (that is SolveAssuming): no conflict analysis runs, nothing is learnt,
// and the caller owns the retract discipline.

// ProbeAssume opens a new decision level, assumes l, and runs unit
// propagation. It returns the number of assignments the probe added to
// the trail (l itself plus everything propagation implied; 0 when l was
// already true) and whether the probe hit a conflict — l false on entry,
// l enqueued but contradicted, or propagation deriving a clash.
//
// A conflicting probe means ¬l is entailed under the assumptions below
// it (a failed literal when probed from level 0). The trail is left at
// the probe level either way; the caller must ProbeRetract past it
// before trusting values again.
func (s *Solver) ProbeAssume(l cnf.Lit) (implied int, conflict bool) {
	before := len(s.trail)
	s.newDecisionLevel()
	if !s.enqueue(l, refUndef) {
		return 0, true
	}
	if confl := s.propagate(); confl != refUndef {
		return len(s.trail) - before, true
	}
	return len(s.trail) - before, false
}

// ProbeRetract undoes every probe level above level, without disturbing
// saved phases — probe assignments are artificial and must not steer the
// next real search (the same rule vivification follows).
func (s *Solver) ProbeRetract(level int) {
	saved := s.noPhaseSave
	s.noPhaseSave = true
	s.cancelUntil(level)
	s.noPhaseSave = saved
}

// ProbeLevel returns the current decision level, the anchor to pass back
// to ProbeRetract.
func (s *Solver) ProbeLevel() int { return s.decisionLevel() }

// Assigned reports whether variable v currently holds a value (at any
// level — under active probes that includes probe implications).
func (s *Solver) Assigned(v cnf.Var) bool {
	return int(v) <= s.nVars && s.vals[cnf.PosLit(v)] != lUndef
}

// TrailLen returns the current assignment count. The difference across a
// ProbeAssume is the propagation cascade the probe triggered.
func (s *Solver) TrailLen() int { return len(s.trail) }

// LitOccurrences counts, per literal, the problem clauses it occurs in,
// indexed by the literal's integer encoding (length 2*NumVars+2). The
// cuber uses it as the static tie-breaking signal when ranking splitting
// candidates before any probing runs.
func (s *Solver) LitOccurrences() []int32 {
	occ := make([]int32, 2*s.nVars+2)
	for _, c := range s.clauses {
		for _, l := range s.ca.lits(c) {
			occ[l]++
		}
	}
	return occ
}
