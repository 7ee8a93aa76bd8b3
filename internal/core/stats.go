package core

import (
	"fmt"
	"time"
)

// SkinHist is the skin-effect histogram of §6 (Table 3): Counts[r] is the
// number of times the current top clause — the clause the next branching
// variable was chosen from — sat at distance r from the top of the
// conflict-clause stack.
type SkinHist struct {
	Counts []uint64
}

func (h *SkinHist) record(r int) {
	for len(h.Counts) <= r {
		h.Counts = append(h.Counts, 0)
	}
	h.Counts[r]++
}

// At returns f(r), the count at distance r (0 if never observed).
func (h *SkinHist) At(r int) uint64 {
	if r < 0 || r >= len(h.Counts) {
		return 0
	}
	return h.Counts[r]
}

// Total returns the total number of top-clause decisions recorded.
func (h *SkinHist) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// StopReason says why a Solve call returned. Definitive answers carry
// StopNone; StatusUnknown always carries the specific limit that was hit,
// so callers can distinguish a resource-limited run from one cancelled via
// Interrupt.
type StopReason int

const (
	// StopNone: the solver returned a definitive SAT/UNSAT answer.
	StopNone StopReason = iota
	// StopConflicts: Options.MaxConflicts was reached.
	StopConflicts
	// StopTime: Options.MaxTime elapsed.
	StopTime
	// StopInterrupted: Interrupt was called.
	StopInterrupted
)

func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopConflicts:
		return "conflict-limit"
	case StopTime:
		return "time-limit"
	case StopInterrupted:
		return "interrupted"
	default:
		return "unknown"
	}
}

// ResourceLimit reports whether the run stopped because a configured
// resource budget (conflicts or time) ran out — as opposed to
// answering, or being interrupted from outside.
func (r StopReason) ResourceLimit() bool {
	return r == StopConflicts || r == StopTime
}

// Stats aggregates everything the paper's tables report about a run.
//
// Incremental semantics: a Solver keeps one Stats value for its whole
// lifetime, so across Solve / SolveAssuming calls every counter is
// CUMULATIVE — Conflicts, Decisions, Propagations, Restarts, the learnt /
// deleted / simplification / inprocessing totals, the skin histogram and
// PeakLiveClauses all keep growing from call to call. Exactly three fields
// are PER-CALL, overwritten at the start or end of each solve: Stop (why
// the most recent call returned), Runtime (the most recent call's
// wall-clock) and InitialClauses (the problem-clause count as of the most
// recent call). BinClauses is a GAUGE: the binary clauses attached right
// now, not a running total; CoreLearnts, Tier2Learnts and LocalLearnts are
// gauges the same way (current tier sizes). TestStatsIncrementalSemantics
// pins this contract.
//
// Lifecycle semantics (reuse.go): Solver.Reset starts a NEW Stats lifetime
// — every cumulative counter returns to zero and the gauges are recomputed
// from the surviving formula (so BinClauses reflects the problem clauses
// still attached, while the learnt-tier gauges drop to zero with the
// learnt database). Solver.Clone copies the Stats verbatim — the clone
// inherits the accumulation up to the clone point and diverges from there;
// Reconfigure keeps Stats untouched. TestStatsResetSemantics pins this.
type Stats struct {
	Decisions    uint64
	Conflicts    uint64
	Propagations uint64
	Restarts     uint64

	// PostponedRestarts counts due restarts that were re-armed instead of
	// taken because the recent learnt-clause glue ran below the lifetime
	// average (Options.RestartPostpone).
	PostponedRestarts uint64

	// GlueSum accumulates the glue (LBD) of every learnt clause at learn
	// time, so GlueSum/LearntTotal is the lifetime average glue the restart
	// postponement rule compares against.
	GlueSum uint64

	// Three-tier learnt-database accounting (Options.Reduce ==
	// ReduceTiered). CoreLearnts/Tier2Learnts/LocalLearnts are GAUGES — the
	// tier sizes right now, maintained incrementally and recomputed from an
	// arena walk after every database pass. TierPromotions counts clauses
	// moved to a better tier by a glue improvement (or a shrink),
	// TierDemotions counts TIER2 clauses demoted to LOCAL for sitting out a
	// whole inter-cleaning interval.
	CoreLearnts    int
	Tier2Learnts   int
	LocalLearnts   int
	TierPromotions uint64
	TierDemotions  uint64

	// BinPropagations counts assignments produced by the binary implication
	// tier (a subset of the assignments behind Propagations); BinClauses is
	// the number of binary clauses — problem and learnt — currently
	// attached to that tier (a gauge, recomputed by every watch rebuild).
	BinPropagations uint64
	BinClauses      int

	// Stop is why the most recent Solve call returned (per-call, not
	// cumulative).
	Stop StopReason

	// ExportedClauses counts learnt clauses handed to the export hook;
	// ImportedClauses counts foreign clauses integrated via Import
	// (portfolio clause sharing).
	ExportedClauses uint64
	ImportedClauses uint64

	// TopClauseDecisions counts decisions made on the current top clause;
	// GlobalDecisions counts decisions made on the whole formula (all
	// conflict clauses satisfied, or a decider without the top-clause rule).
	// Their split quantifies the skin effect.
	TopClauseDecisions uint64
	GlobalDecisions    uint64

	// ActivityRescales counts EVSIDS overflow rescales: every float
	// activity (and the bump increment) multiplied by 1e-100 because a
	// value crossed 1e100 (DecideEvsids only).
	ActivityRescales uint64

	// LearntTotal counts every conflict clause ever deduced, including unit
	// ones; Table 9's database-size ratio is
	// (LearntTotal + initial clauses) / initial clauses.
	LearntTotal   uint64
	DeletedTotal  uint64 // learnt clauses removed by DB management (tombstoned)
	SimplifiedSat uint64 // clauses removed because level-0 assignments satisfy them
	StrippedLits  uint64 // false literals stripped at level 0
	ArenaGCs      uint64 // clause-arena compaction passes (lazy deletion reclaim)

	// Inprocessing (extension beyond the paper; Options.InprocessPeriod):
	// InprocessPasses counts completed passes, SubsumedClauses the clauses
	// removed as supersets of another live clause, StrengthenedLits the
	// literals deleted by self-subsuming resolution, and VivifiedClauses
	// the clauses shortened by vivification.
	InprocessPasses  uint64
	SubsumedClauses  uint64
	StrengthenedLits uint64
	VivifiedClauses  uint64

	// InitialClauses is the problem-clause count as of the most recent
	// Solve call (per-call: preprocessing and level-0 simplification shrink
	// it between calls); PeakLiveClauses is the largest number of clauses
	// simultaneously held over the solver's lifetime (Table 9's "largest
	// CNF" ratio numerator).
	InitialClauses  int
	PeakLiveClauses int

	// Skin is the f(r) histogram of Table 3.
	Skin SkinHist

	// Runtime is the wall-clock duration of the most recent Solve call
	// (per-call, not cumulative).
	Runtime time.Duration
}

// DatabaseRatio returns (conflict clauses ever generated + initial clauses)
// divided by initial clauses, the "(Database size)/(Initial CNF size)"
// column of Table 9.
func (s *Stats) DatabaseRatio() float64 {
	if s.InitialClauses == 0 {
		return 0
	}
	return float64(s.LearntTotal+uint64(s.InitialClauses)) / float64(s.InitialClauses)
}

// PeakRatio returns the "(Largest CNF size)/(Initial CNF size)" column of
// Table 9: the most clauses the solver ever held at once, relative to the
// input size.
func (s *Stats) PeakRatio() float64 {
	if s.InitialClauses == 0 {
		return 0
	}
	return float64(s.PeakLiveClauses) / float64(s.InitialClauses)
}

// String renders a one-line human-readable summary.
func (s *Stats) String() string {
	return fmt.Sprintf(
		"decisions=%d conflicts=%d propagations=%d restarts=%d learnt=%d deleted=%d db-ratio=%.2f peak-ratio=%.2f time=%v",
		s.Decisions, s.Conflicts, s.Propagations, s.Restarts,
		s.LearntTotal, s.DeletedTotal, s.DatabaseRatio(), s.PeakRatio(), s.Runtime)
}
