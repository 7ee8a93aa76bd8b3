package core

import (
	"fmt"

	"berkmin/internal/cnf"
)

// propagate performs Boolean constraint propagation. For each trail
// literal it first drains the binary tier — per-literal implication lists
// whose entries carry the partner literal inline, so a binary clause is
// propagated with one three-valued lookup and no arena access — and then
// runs two-watched-literal propagation (the SATO/Chaff scheme the paper
// adopts in §2, "our own implementation of this idea of SATO") over the
// clauses of three or more literals. It returns the conflicting clause, or
// refUndef if a fixed point is reached. The loop allocates nothing
// (watch-list and trail growth is amortized and reaches zero in steady
// state — see BenchmarkPropagate).
func (s *Solver) propagate() clauseRef {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++

		falsified := p.Not()

		// Binary tier: every entry is a complete implication. Nothing is
		// ever moved or removed here, so an early conflict return leaves
		// the lists intact (the conflicting level is backtracked anyway).
		for _, w := range s.binWatches[falsified] {
			switch s.value(w.other) {
			case lTrue:
			case lFalse:
				s.qhead = len(s.trail)
				return w.ref
			default:
				s.enqueueBin(w.other, falsified)
				s.stats.BinPropagations++
			}
		}

		ws := s.watches[falsified]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			// Blocker: if some cached literal is true the clause is
			// satisfied and can stay watched as-is.
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			lits := s.ca.lits(c)
			// Make sure the falsified literal sits in slot 1.
			if lits[0] == falsified {
				lits[0], lits[1] = lits[1], lits[0]
			}
			// If the other watched literal is true, the clause is
			// satisfied: keep watching with it as blocker.
			if first := lits[0]; first != w.blocker && s.value(first) == lTrue {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Look for a new literal to watch.
			moved := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1]] = append(s.watches[lits[1]], watcher{c, lits[0]})
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// No replacement: the clause is unit or conflicting.
			kept = append(kept, watcher{c, lits[0]})
			if s.value(lits[0]) == lFalse {
				// Conflict: restore the remaining watchers and report.
				kept = append(kept, ws[i+1:]...)
				s.watches[falsified] = kept
				s.qhead = len(s.trail)
				return c
			}
			s.enqueue(lits[0], c)
		}
		s.watches[falsified] = kept
	}
	return refUndef
}

// detach removes a single learnt clause's watcher entries from its tier,
// leaving every other list untouched. It handles learnt clauses only:
// those have no nb_two partner entries to drop. The clause must currently
// be attached with its present size: binary clauses sit in both binWatches
// lists, longer clauses keep their watched literals in slots 0 and 1 under
// propagation, so those two lists are the only ones to scan. Vivification
// uses this to replace one clause without the wholesale rebuild reduceDB
// does.
func (s *Solver) detach(c clauseRef) {
	lits := s.ca.lits(c)
	if len(lits) == 2 {
		s.removeBinWatch(lits[0], c)
		s.removeBinWatch(lits[1], c)
		s.stats.BinClauses--
		return
	}
	s.removeWatch(lits[0], c)
	s.removeWatch(lits[1], c)
}

// removeWatch unregisters one watcher. A missing entry means the watch
// lists and the clause database have diverged — corruption that would
// otherwise surface as a miracle UNSAT much later — so it panics instead
// of no-opping.
func (s *Solver) removeWatch(l cnf.Lit, c clauseRef) {
	ws := s.watches[l]
	for i := range ws {
		if ws[i].c == c {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
	panic(fmt.Sprintf("core: removeWatch: clause %d not on the watch list of literal %v", c, l))
}

// removeBinWatch unregisters one binary-tier implication, with the same
// corruption panic as removeWatch.
func (s *Solver) removeBinWatch(l cnf.Lit, c clauseRef) {
	s.ownBinWatches()
	ws := s.binWatches[l]
	for i := range ws {
		if ws[i].ref == c {
			ws[i] = ws[len(ws)-1]
			s.binWatches[l] = ws[:len(ws)-1]
			return
		}
	}
	panic(fmt.Sprintf("core: removeBinWatch: clause %d not on the binary list of literal %v", c, l))
}

// rebuildWatches drops every watch list — both tiers — and re-attaches all
// clauses. Database management removes and shrinks clauses, so the paper's
// BerkMin "partially or completely recomputes" its data structures after a
// cleaning (§8); rebuilding wholesale keeps the invariants simple. It is
// also the migration point between tiers: a long clause strengthened or
// stripped down to two literals re-attaches as a binary implication here.
// Must be called at decision level 0 with no pending propagations beyond
// qhead; clauses of length >= 3 must have two non-false (or
// level-0-satisfied) literals in slots 0 and 1, which simplification
// guarantees.
func (s *Solver) rebuildWatches() {
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	s.ownBinWatches()
	for i := range s.binWatches {
		s.binWatches[i] = s.binWatches[i][:0]
	}
	s.stats.BinClauses = 0 // attach re-counts both clause lists
	for _, c := range s.clauses {
		s.attach(c)
	}
	for _, c := range s.learnts {
		s.attach(c)
	}
}

// rebuildBinOcc recomputes the binary-partner lists backing the nb_two
// cost function (§7) from the live problem clauses.
func (s *Solver) rebuildBinOcc() {
	s.ownBinOcc()
	for i := range s.binOcc {
		s.binOcc[i] = s.binOcc[i][:0]
	}
	for _, c := range s.clauses {
		s.addBinOcc(c)
	}
	s.binOccStale = false
}

// refreshBinOcc rebuilds the binary-partner lists only if binOccStale says
// the binary problem clauses changed since the last rebuild.
func (s *Solver) refreshBinOcc() {
	if s.binOccStale {
		s.rebuildBinOcc()
	}
}

// satLit returns the first literal of the clause that is currently true,
// or LitUndef.
func (s *Solver) satLit(c clauseRef) cnf.Lit {
	for _, l := range s.ca.lits(c) {
		if s.value(l) == lTrue {
			return l
		}
	}
	return cnf.LitUndef
}
