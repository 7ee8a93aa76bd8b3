package core

import (
	"cmp"
	"slices"

	"berkmin/internal/cnf"
)

// reduceDB is BerkMin's clause-database management (§8), run after the
// current search tree is abandoned. It (1) simplifies the database under
// the retained level-0 assignments — clauses satisfied by them are removed
// and false literals are stripped, which covers the paper's "fraction of
// clauses removed automatically"; (2) removes conflict clauses by age,
// length and activity; (3) recomputes the solver's data structures
// (arena compaction, watches, occurrence lists), as the paper's
// implementation does to fit smaller memory blocks.
//
// Under the flat arena, removal is lazy: clauses are tombstoned in place
// (free), and once a quarter of the arena is dead a compaction pass
// relocates the live clauses into a fresh contiguous slab and remaps every
// ref the solver holds. Watches and occurrence lists are rebuilt wholesale
// afterwards either way.
func (s *Solver) reduceDB() {
	// Every pass below rewrites the learnt stack in place.
	s.top.rewritten()
	// Finish pending level-0 propagation first.
	if confl := s.propagate(); confl != refUndef {
		s.ok = false
		s.proof.Add(nil)
		return
	}
	if len(s.trail) != s.simpTrail {
		s.simplifyLevel0()
		if !s.ok {
			return
		}
	}

	switch s.opt.Reduce {
	case ReduceNone:
		// keep everything
	case ReduceLimitedKeeping:
		s.reduceLimitedKeeping()
	case ReduceTiered:
		s.reduceTiered()
	default:
		s.reduceBerkMin()
	}

	// Periodically mark one clause as permanently protected — the paper's
	// scheme that makes the algorithm complete by preventing looping.
	if s.opt.MarkPeriod > 0 {
		s.sinceMark++
		if s.sinceMark >= s.opt.MarkPeriod && len(s.learnts) > 0 {
			s.sinceMark = 0
			s.ca.setProtect(s.learnts[len(s.learnts)-1])
		}
	}

	s.maybeGC()
	s.rebuildWatches()
	s.refreshBinOcc()
	// Every structural change above went through this pass, so one arena
	// walk makes the tier gauges authoritative again (simplification and
	// subsumption free learnt clauses without touching the gauges).
	s.recountTiers()
	if confl := s.propagate(); confl != refUndef {
		s.ok = false
		s.proof.Add(nil)
	}
}

// simplifyLevel0 removes clauses satisfied at level 0 and strips literals
// false at level 0, over both problem and learnt clauses. Clauses reduced
// to units become retained level-0 assignments. Units found here are only
// enqueued, so simpTrail records the trail length the pass started from:
// the units make the next reduceDB run it again.
func (s *Solver) simplifyLevel0() {
	s.top.rewritten() // learnts are freed and shrunk in place
	s.simpTrail = len(s.trail)
	s.clearLevel0Reasons()
	s.clauses = s.simplifySlice(s.clauses)
	if !s.ok {
		return
	}
	s.learnts = s.simplifySlice(s.learnts)
}

// clearLevel0Reasons drops the antecedent refs of every trail variable.
// Level-0 variables keep their assignment forever and their reasons are
// never consulted again (conflict analysis skips level-0 literals), but the
// refs would keep tombstoned clauses alive across a GC — so every pass that
// frees or relocates clauses clears them first. Must run at decision level 0.
//
// A literal that still carries a reason here was derived by propagation and
// has no addition line of its own in an attached DRUP trace — the checker
// re-derives it from the antecedent clauses. Every caller is about to make
// those antecedents deletable, so the unit is logged first, while it is
// still RUP against the intact database. Trail order is derivation order,
// which keeps each unit RUP given the ones logged before it.
func (s *Solver) clearLevel0Reasons() {
	for _, l := range s.trail {
		v := l.Var()
		if s.reason[v] == refUndef {
			continue
		}
		unit := [1]cnf.Lit{l}
		s.proof.Add(unit[:])
		s.reason[v] = refUndef
	}
}

func (s *Solver) simplifySlice(list []clauseRef) []clauseRef {
	kept := list[:0]
clauses:
	for _, c := range list {
		lits := s.ca.lits(c)
		strip := false
		for _, l := range lits {
			switch s.value(l) {
			case lTrue:
				s.stats.SimplifiedSat++
				if len(lits) == 2 && !s.ca.learnt(c) {
					s.binOccStale = true
				}
				s.proof.Delete(lits)
				s.ca.free(c)
				continue clauses
			case lFalse:
				strip = true
			}
		}
		if strip {
			old := s.proof.Snapshot(lits)
			n := len(lits)
			// Compact the surviving literals to the front of the clause's
			// arena slot, then shrink it in place; the cut tail becomes
			// wasted space reclaimed by the next compaction.
			out := lits[:0]
			for _, l := range lits {
				if s.value(l) == lUndef {
					out = append(out, l)
				}
			}
			s.stats.StrippedLits += uint64(n - len(out))
			if (n == 2 || len(out) == 2) && !s.ca.learnt(c) {
				s.binOccStale = true
			}
			// Proof: the strengthened clause is RUP given the level-0
			// units; log it before retiring the original.
			s.proof.Edit(out, old)
			s.ca.shrink(c, len(out))
			if s.ca.learnt(c) && len(out) >= 2 {
				s.refreshTierAfterShrink(c)
			}
			switch len(out) {
			case 1:
				s.ca.free(c) // retained as a level-0 assignment, not a clause
				if !s.enqueue(out[0], refUndef) {
					s.ok = false
					s.proof.Add(nil)
					return kept
				}
				continue
			case 0:
				s.ca.free(c)
				s.ok = false
				s.proof.Add(nil)
				return kept
			}
		}
		kept = append(kept, c)
	}
	return kept
}

// BerkMin's §8 keep rule: a young conflict clause survives if it is shorter
// than youngMaxLen literals or more active than youngMinAct; an old one if
// it is shorter than oldMaxLen or more active than a threshold that starts
// at oldThresholdInit and grows by oldThresholdInc per cleaning.
const (
	youngMaxLen      = 43
	youngMinAct      = 7
	oldMaxLen        = 9
	oldThresholdInit = 60
	oldThresholdInc  = 1
)

// The glue-aware three-tier database (ReduceTiered): glue ≤ coreGlue is
// CORE, glue ≤ tier2Glue is TIER2, and the LOCAL halving first triggers at
// tieredFirstReduce learnt clauses, the trigger growing by tieredReduceInc
// after each halving.
const (
	coreGlue          = 2
	tier2Glue         = 6
	tieredFirstReduce = 2000
	tieredReduceInc   = 300
)

// reduceBerkMin applies §8's keep/remove rules to the conflict-clause
// stack. With the stack holding m clauses, a clause at distance d from the
// top is young iff d < (YoungFracNum/YoungFracDen)·m. A young clause is
// kept iff it is shorter than youngMaxLen or its activity exceeds
// youngMinAct; an old clause iff shorter than oldMaxLen or more active than
// the growing threshold. The topmost clause is never removed (anti-looping).
func (s *Solver) reduceBerkMin() {
	m := len(s.learnts)
	if m == 0 {
		return
	}
	kept := s.learnts[:0]
	for i, c := range s.learnts {
		d := m - 1 - i
		keep := false
		switch {
		case i == m-1 || s.ca.protect(c):
			keep = true
		case s.ca.size(c) <= 2:
			// Binary clauses are permanent: they cost two list entries, are
			// propagated for free by the binary tier, and their activity is
			// deliberately not tracked (analyze.go skips the bump), so the
			// activity-based rules below must never see them. Every shipped
			// configuration kept them anyway (youngMaxLen and oldMaxLen far
			// exceed 2); this makes the two-tier invariant explicit.
			keep = true
		case d*s.opt.YoungFracDen < m*s.opt.YoungFracNum: // young
			keep = s.ca.size(c) < youngMaxLen || s.ca.act(c) > youngMinAct
		default: // old
			keep = s.ca.size(c) < oldMaxLen || s.ca.act(c) > s.oldThreshold
		}
		if keep {
			kept = append(kept, c)
		} else {
			s.stats.DeletedTotal++
			s.proof.Delete(s.ca.lits(c))
			s.ca.free(c)
		}
	}
	s.learnts = kept
	// Long clauses that were active once but stopped participating in
	// conflicts must eventually go: the old-clause threshold grows.
	s.oldThreshold += oldThresholdInc
}

// tierFor maps a learnt clause's glue and size to its retention tier.
// Binary clauses are CORE regardless of stored glue: the binary tier keeps
// them forever anyway (attach/detach), so the tier bits must agree.
func (s *Solver) tierFor(glue, size int) clauseTier {
	switch {
	case size <= 2 || glue <= coreGlue:
		return tierCore
	case glue <= tier2Glue:
		return tierMid
	default:
		return tierLocal
	}
}

// tierGaugeAdd adjusts one tier-size gauge.
func (s *Solver) tierGaugeAdd(t clauseTier, d int) {
	switch t {
	case tierCore:
		s.stats.CoreLearnts += d
	case tierMid:
		s.stats.Tier2Learnts += d
	default:
		s.stats.LocalLearnts += d
	}
}

// promoteTier moves a clause to the tier its improved glue earns. Movement
// is monotone: glue only ever shrinks, so a clause is never demoted here
// (TIER2→LOCAL demotion for inactivity is reduceTiered's business).
func (s *Solver) promoteTier(c clauseRef, glue int) {
	nt := s.tierFor(glue, s.ca.size(c))
	if t := s.ca.tier(c); nt > t {
		s.tierGaugeAdd(t, -1)
		s.tierGaugeAdd(nt, 1)
		s.ca.setTier(c, nt)
		s.stats.TierPromotions++
	}
}

// refreshTierAfterShrink re-derives a learnt clause's glue bound and tier
// after literals were removed in place (level-0 stripping, strengthening,
// vivification): the glue can never exceed the clause size, and a clause
// cut down to two literals joins the permanent binary tier.
func (s *Solver) refreshTierAfterShrink(c clauseRef) {
	g := s.ca.glue(c)
	if n := s.ca.size(c); g > n {
		g = n
		s.ca.setGlue(c, g)
	}
	s.promoteTier(c, g)
}

// recountTiers recomputes the tier-size gauges from an arena walk. The
// gauges are maintained incrementally on the hot paths (record, analysis
// promotions, tiered cleaning); every database pass that can free or
// shrink learnt clauses through other routes ends here, making the walk
// the authoritative count the invariant tests compare against.
func (s *Solver) recountTiers() {
	core, mid, local := 0, 0, 0
	for _, c := range s.learnts {
		switch s.ca.tier(c) {
		case tierCore:
			core++
		case tierMid:
			mid++
		default:
			local++
		}
	}
	s.stats.CoreLearnts, s.stats.Tier2Learnts, s.stats.LocalLearnts = core, mid, local
}

// reduceTiered is the glue-aware three-tier database management
// (ReduceTiered; Glucose/CaDiCaL lineage). CORE clauses (glue ≤ coreGlue,
// and every binary) are permanent, like the retained binaries of the
// propagation tier. TIER2 clauses stay while they keep participating in
// conflicts; one full inter-cleaning interval without a touch demotes them
// to LOCAL. The LOCAL tier is sorted by activity (glue breaking ties, then
// age) and its passive half is deleted. The whole pass is gated by a
// growing database-size target, so cheap early restarts don't thrash the
// database; the §8 anti-looping top clause and marked clauses survive
// regardless, keeping the completeness argument intact across modes.
func (s *Solver) reduceTiered() {
	m := len(s.learnts)
	if m == 0 || m < s.tieredTarget {
		return
	}
	s.tieredTarget += tieredReduceInc

	// Pass 1: clear the touch marks, demote TIER2 clauses that sat the
	// whole interval out, and collect the LOCAL deletion candidates.
	cand := s.tierCand[:0]
	for i, c := range s.learnts {
		switch s.ca.tier(c) {
		case tierCore:
			continue // permanent; touch marks don't matter
		case tierMid:
			if s.ca.touched(c) {
				s.ca.clearTouched(c)
				continue
			}
			s.ca.setTier(c, tierLocal)
			s.tierGaugeAdd(tierMid, -1)
			s.tierGaugeAdd(tierLocal, 1)
			s.stats.TierDemotions++
			// A freshly demoted clause gets one full LOCAL interval before
			// it can be deleted: its (low) activity would otherwise sort it
			// straight into the passive half of this very pass, collapsing
			// "demotion" into a delayed delete.
			continue
		default:
			s.ca.clearTouched(c)
		}
		cand = append(cand, int32(i))
	}
	s.tierCand = cand
	if len(cand) < 2 {
		return
	}

	// Pass 2: delete the passive half — lowest activity first, larger glue
	// first on equal activity, older first beyond that. The §8 anti-looping
	// top clause and marked clauses consume their slot of the deletion
	// quota but survive, keeping the completeness argument intact.
	slices.SortFunc(cand, func(a, b int32) int {
		x, y := s.learnts[a], s.learnts[b]
		if c := cmp.Compare(s.ca.act(x), s.ca.act(y)); c != 0 {
			return c
		}
		if c := cmp.Compare(s.ca.glue(y), s.ca.glue(x)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, i := range cand[:len(cand)/2] {
		c := s.learnts[i]
		if int(i) == m-1 || s.ca.protect(c) {
			continue
		}
		s.stats.DeletedTotal++
		s.tierGaugeAdd(tierLocal, -1)
		s.proof.Delete(s.ca.lits(c))
		s.ca.free(c)
	}
	s.learnts = dropDeleted(&s.ca, s.learnts)
}

// reduceLimitedKeeping simulates GRASP's (and Chaff's) database management
// for Table 5: every learnt clause longer than LimitedKeepLen is removed,
// regardless of age or activity. The topmost clause stays, as in the rest
// of the engine.
func (s *Solver) reduceLimitedKeeping() {
	m := len(s.learnts)
	if m == 0 {
		return
	}
	kept := s.learnts[:0]
	for i, c := range s.learnts {
		// Binary clauses are permanent here too (see reduceBerkMin).
		if i == m-1 || s.ca.protect(c) || s.ca.size(c) <= 2 || s.ca.size(c) <= s.opt.LimitedKeepLen {
			kept = append(kept, c)
		} else {
			s.stats.DeletedTotal++
			s.proof.Delete(s.ca.lits(c))
			s.ca.free(c)
		}
	}
	s.learnts = kept
}
