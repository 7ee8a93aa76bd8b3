package core

import (
	"slices"

	"berkmin/internal/cnf"
)

// Arena-native inprocessing: simplification of the clause database while
// the search is running, executed at restart boundaries right after §8
// database management. BerkMin's own simplification is limited to the
// retained level-0 assignments (reduce.go); the passes here extend it with
// the techniques the post-BerkMin CDCL literature found highest-leverage —
// subsumption, self-subsuming resolution (clause strengthening) and
// bounded clause vivification — operating directly on the flat clause
// arena of arena.go, with every derived clause logged to the DRUP proof.
//
// All passes run together at decision level 0, every
// Options.InprocessPeriod restarts (0 disables them). The scratch
// structures live on the Solver and are reused, so a steady-state pass
// that finds nothing allocates nothing (BenchmarkInprocess gates this).

// Cost bounds of one inprocessing pass: subsumption and strengthening skip
// occurrence lists longer than inprocessMaxOcc, and vivification visits at
// most vivifyMaxClauses learnt clauses, a persistent cursor rotating
// through the learnt stack across passes.
const (
	inprocessMaxOcc  = 40
	vivifyMaxClauses = 128
)

// inpClause is one work-list entry of an inprocessing pass: a live clause
// plus its literal-occurrence signature for fast subset rejection.
type inpClause struct {
	ref clauseRef
	sig uint64
}

// inprocess runs every pass. Must be called at decision level 0
// with the watch lists intact and propagation at a fixed point — i.e.
// right after a successful reduceDB.
func (s *Solver) inprocess() {
	s.sinceInprocess = 0
	s.stats.InprocessPasses++
	s.clearLevel0Reasons()
	changed := s.subsumePass()
	if !s.ok {
		return
	}
	if changed {
		// Tombstoning and in-place shrinking invalidated the watch and
		// binary-partner lists; rebuild before anything propagates again.
		// The rebuild is also the tier migration: a clause strengthened
		// down to two literals re-attaches as a binary implication and
		// re-enters the nb_two partner lists here.
		s.clauses = dropDeleted(&s.ca, s.clauses)
		s.learnts = dropDeleted(&s.ca, s.learnts)
		s.rebuildWatches()
		s.rebuildBinOcc()
		if confl := s.propagate(); confl != refUndef {
			s.ok = false
			s.proofEmpty()
			return
		}
	}
	// Vivification maintains the watch lists incrementally and only
	// touches learnt clauses, so no wholesale rebuild is needed.
	s.vivifyPass()
	if !s.ok {
		return
	}
	// Propagations above may have assigned new level-0 variables with
	// clause antecedents; drop the refs so tombstones cannot be resurrected
	// by the next GC.
	s.clearLevel0Reasons()
	// Subsumption and vivification free and replace learnt clauses without
	// touching the tier gauges; re-derive them from the arena walk.
	s.recountTiers()
}

// dropDeleted filters tombstoned refs out of a clause list in place.
func dropDeleted(ca *clauseArena, list []clauseRef) []clauseRef {
	kept := list[:0]
	for _, c := range list {
		if !ca.deleted(c) {
			kept = append(kept, c)
		}
	}
	return kept
}

// subsumePass removes clauses subsumed by another live clause and applies
// self-subsuming resolution, over problem and learnt clauses alike. It
// reports whether anything changed; on deriving level-0 unsatisfiability
// it clears s.ok. Watch and occurrence lists are stale afterwards — the
// caller rebuilds them.
func (s *Solver) subsumePass() bool {
	// Work list over every live clause, with the index of the topmost
	// learnt clause: §8's anti-looping rule protects it from removal (a
	// strictly-stronger strengthening is still allowed).
	work := s.inpWork[:0]
	topIdx := -1
	for _, c := range s.clauses {
		work = append(work, inpClause{c, cnf.Clause(s.ca.lits(c)).Signature()})
	}
	for i, c := range s.learnts {
		if i == len(s.learnts)-1 {
			topIdx = len(work)
		}
		work = append(work, inpClause{c, cnf.Clause(s.ca.lits(c)).Signature()})
	}
	s.inpWork = work
	if len(work) == 0 {
		return false
	}

	// Literal-occurrence index into the work list (reused across passes).
	for len(s.inpOcc) < 2*s.nVars+2 {
		s.inpOcc = append(s.inpOcc, nil)
	}
	occ := s.inpOcc
	for i := range occ {
		occ[i] = occ[i][:0]
	}
	for i := range work {
		for _, l := range s.ca.lits(work[i].ref) {
			occ[l] = append(occ[l], int32(i))
		}
	}

	// Short clauses are the strong subsumers: give them the first turns.
	order := s.inpOrder[:0]
	for i := range work {
		order = append(order, int32(i))
	}
	s.inpOrder = order
	slices.SortFunc(order, func(a, b int32) int {
		return s.ca.size(work[a].ref) - s.ca.size(work[b].ref)
	})

	changed := false
	for _, ci := range order {
		if !s.ok {
			return true
		}
		c := &work[ci]
		if s.ca.deleted(c.ref) {
			continue
		}
		lits := s.ca.lits(c.ref)

		// Subsumption: scan candidates through c's rarest literal only.
		best := lits[0]
		for _, l := range lits[1:] {
			if len(occ[l]) < len(occ[best]) {
				best = l
			}
		}
		if len(occ[best]) <= inprocessMaxOcc {
			for _, di := range occ[best] {
				d := &work[di]
				if d.ref == c.ref || di == int32(topIdx) ||
					s.ca.deleted(d.ref) || s.ca.protect(d.ref) ||
					s.ca.size(d.ref) < len(lits) || c.sig&^d.sig != 0 {
					continue
				}
				// A learnt subsumer must not remove a problem clause:
				// learnt clauses are freely deletable by database
				// management, and once the subsumer ages out nothing would
				// imply the removed constraint any more.
				if s.ca.learnt(c.ref) && !s.ca.learnt(d.ref) {
					continue
				}
				if cnf.Clause(s.ca.lits(d.ref)).ContainsAll(lits) {
					s.proofDelete(s.ca.lits(d.ref))
					s.ca.free(d.ref)
					s.stats.SubsumedClauses++
					changed = true
				}
			}
		}

		// Self-subsuming resolution: c = (l ∨ A); any live d ⊇ A ∪ {¬l}
		// resolves with c to a strict subset of itself, so ¬l can be
		// deleted from d in place.
		for _, l := range lits {
			neg := l.Not()
			if len(occ[neg]) > inprocessMaxOcc {
				continue
			}
			negSig := c.sig&^(1<<(uint(l)%64)) | 1<<(uint(neg)%64)
			for _, di := range occ[neg] {
				d := &work[di]
				if s.ca.deleted(d.ref) || s.ca.size(d.ref) < len(lits) || negSig&^d.sig != 0 {
					continue
				}
				if cnf.SubsumesExcept(lits, s.ca.lits(d.ref), l, neg) {
					s.strengthenInPlace(d, neg)
					changed = true
					if !s.ok {
						return true
					}
				}
			}
		}
	}
	return changed
}

// strengthenInPlace deletes one literal from a clause in the arena,
// logging the strengthened clause (a resolvent, hence RUP) before
// retiring the original. A clause strengthened to a unit becomes a
// retained level-0 assignment; to a conflicting unit, level-0 UNSAT.
func (s *Solver) strengthenInPlace(w *inpClause, drop cnf.Lit) {
	c := w.ref
	s.inpSnap = s.proofSnapshot(s.inpSnap, c)
	lits := s.ca.lits(c)
	out := lits[:0]
	for _, x := range lits {
		if x != drop {
			out = append(out, x)
		}
	}
	s.ca.shrink(c, len(out))
	s.ca.setSatCache(c, cnf.LitUndef)
	if s.ca.learnt(c) && len(out) >= 2 {
		s.refreshTierAfterShrink(c)
	}
	w.sig = cnf.Clause(out).Signature()
	s.stats.StrengthenedLits++
	s.proofShrink(out, s.inpSnap)
	if len(out) == 1 {
		// Retained as a level-0 assignment, not a clause (propagated by
		// the fixpoint pass that follows subsumePass).
		s.ca.free(c)
		if !s.enqueue(out[0], refUndef) {
			s.ok = false
			s.proofEmpty()
		}
	}
}

// vivifyPass vivifies a bounded, rotating window of the learnt stack. It
// reports whether anything changed; on deriving level-0 unsatisfiability
// it clears s.ok. The watch lists stay valid throughout.
func (s *Solver) vivifyPass() bool {
	n := len(s.learnts)
	if n == 0 {
		return false
	}
	budget := min(vivifyMaxClauses, n)
	if s.vivifyHead >= n {
		s.vivifyHead = 0
	}
	changed := false
	for k := 0; k < budget && s.ok; k++ {
		i := (s.vivifyHead + k) % n
		if s.ca.deleted(s.learnts[i]) || s.ca.size(s.learnts[i]) < 2 {
			continue
		}
		if s.vivifyClause(i) {
			changed = true
		}
	}
	s.vivifyHead = (s.vivifyHead + budget) % n
	if changed {
		s.learnts = dropDeleted(&s.ca, s.learnts)
	}
	return changed
}

// vivifyClause asserts the negations of the clause's literals one at a
// time, propagating after each: a literal already false is redundant and
// dropped; an implied (true) literal or a propagation conflict proves the
// prefix assembled so far is itself a clause of the formula, truncating
// the original. Returns whether the clause shrank.
func (s *Solver) vivifyClause(i int) bool {
	c := s.learnts[i]
	// Copy the literals out of the arena: the replacement alloc below may
	// grow the slab, and the copy doubles as the proof-deletion snapshot.
	lits := append(s.inpLits[:0], s.ca.lits(c)...)
	s.inpLits = lits
	keep := s.inpKeep[:0]
	// The assignments below are probes, not search: saving their
	// polarities would bias PhaseSaving toward falsifying the solver's
	// own learnt clauses after every pass.
	s.noPhaseSave = true
	defer func() { s.noPhaseSave = false }()
	s.newDecisionLevel()
	for _, l := range lits {
		stop := false
		switch s.value(l) {
		case lTrue:
			// prefix ∨ l is implied: everything after l is redundant.
			keep = append(keep, l)
			stop = true
		case lFalse:
			// ¬l is implied under the asserted prefix: l is redundant.
			continue
		default:
			keep = append(keep, l)
			s.enqueue(l.Not(), refUndef)
			if s.propagate() != refUndef {
				// The falsified prefix alone is contradictory: the prefix
				// is an implied clause subsuming the original.
				stop = true
			}
		}
		if stop {
			break
		}
	}
	s.inpKeep = keep
	s.cancelUntil(0)
	if len(keep) >= len(lits) {
		return false
	}
	s.stats.VivifiedClauses++
	s.proofShrink(keep, lits)
	act, prot := s.ca.act(c), s.ca.protect(c)
	glue, tier, touch := s.ca.glue(c), s.ca.tier(c), s.ca.touched(c)
	s.detach(c)
	s.ca.free(c)
	switch len(keep) {
	case 0:
		// Every literal was level-0 false — the formula is refuted, and
		// proofShrink already emitted the empty clause. (Unreachable in
		// practice: the propagation fixpoint that falsified the last
		// literal would already have conflicted at level 0.)
		s.ok = false
	case 1:
		if !s.enqueue(keep[0], refUndef) {
			s.ok = false
			s.proofEmpty()
			return true
		}
		if s.propagate() != refUndef {
			s.ok = false
			s.proofEmpty()
			return true
		}
	default:
		nc := s.ca.alloc(keep, true)
		s.ca.setAct(nc, act)
		if prot {
			s.ca.setProtect(nc)
		}
		// The vivified clause keeps its identity — glue, tier, touch mark —
		// and refreshTierAfterShrink clamps the glue to the new length and
		// promotes if the shrink earns it.
		s.ca.setGlue(nc, glue)
		s.ca.setTier(nc, tier)
		if touch {
			s.ca.setTouched(nc)
		}
		s.refreshTierAfterShrink(nc)
		s.attach(nc)
		s.learnts[i] = nc
	}
	return true
}
