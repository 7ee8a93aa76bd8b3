package core

import "berkmin/internal/cnf"

// Learnt-clause exchange — the solver side of portfolio parallel solving
// (package portfolio). One solver exports the short clauses it learns;
// other solvers working on the same formula import them as extra learnt
// clauses. Everything here preserves the engine's single-threaded design:
// Import only appends to a mutex-guarded queue, and the queue is drained by
// the search loop itself at decision level 0, where attaching a clause
// cannot violate the two-watched-literal invariants (after level-0
// simplification every remaining literal is unassigned).

// The export filter: a learnt clause crosses to other solvers when it has
// at most shareMaxLen literals (short clauses prune the most and cost the
// least to integrate) or glue at most shareMaxGlue (a long clause whose
// literals span few decision levels propagates like a short one).
const (
	shareMaxLen  = 8
	shareMaxGlue = 4
)

// SetLearntExport installs a hook that observes every learnt clause that
// passes the export filter, including units. fn receives the clause's glue
// alongside a fresh copy of the literals it may retain; fn runs on the
// solving goroutine, so it must be fast and must not call back into this
// solver. A nil fn disables exporting.
func (s *Solver) SetLearntExport(fn func(lits []cnf.Lit, glue int)) { s.exportFn = fn }

// exportLearnt hands a just-learnt clause to the export hook when it
// passes the export filter. The copy is mandatory: learnt slices are
// aliased by the live clause, whose literal order is permuted by
// propagation.
func (s *Solver) exportLearnt(lits []cnf.Lit, glue int) {
	if s.exportFn == nil || (len(lits) > shareMaxLen && glue > shareMaxGlue) {
		return
	}
	s.stats.ExportedClauses++
	s.exportFn(append([]cnf.Lit(nil), lits...), glue)
}

// importedClause is one queued foreign clause with the glue its exporter
// measured (an upper bound here — this solver's trail may realize fewer
// levels), so a tiered importer can slot it into the right retention tier.
type importedClause struct {
	lits []cnf.Lit
	glue int
}

// Import queues a clause learnt elsewhere for integration into this
// solver's database, with the glue the exporting solver measured (pass 0
// when unknown — the clause length is used as the pessimistic bound). It
// is safe to call from any goroutine, including while Solve runs; the
// clause is picked up the next time the search passes decision level 0
// (every restart, at the latest).
//
// The caller guarantees the clause is a logical consequence of the formula
// this solver is working on — e.g. a clause learnt by another CDCL solver
// on the same input. Imports are silently dropped when DRUP proof logging
// is enabled: a foreign clause need not be RUP with respect to this
// solver's database, so logging it would corrupt the proof.
func (s *Solver) Import(lits []cnf.Lit, glue int) {
	if s.proof != nil || len(lits) == 0 {
		return
	}
	if glue <= 0 || glue > len(lits) {
		glue = len(lits)
	}
	cp := append([]cnf.Lit(nil), lits...)
	s.importMu.Lock()
	s.importQ = append(s.importQ, importedClause{cp, glue})
	s.importPending.Store(1)
	s.importMu.Unlock()
}

// drainImports integrates all queued foreign clauses. Must be called at
// decision level 0. It returns false if an import exposes level-0
// unsatisfiability.
func (s *Solver) drainImports() bool {
	s.importMu.Lock()
	queue := s.importQ
	s.importQ = nil
	s.importPending.Store(0)
	s.importMu.Unlock()

	for _, item := range queue {
		out, keep := s.reduceAtRoot(item.lits)
		if !keep {
			continue
		}
		s.stats.ImportedClauses++
		switch len(out) {
		case 0:
			return false
		case 1:
			if !s.enqueue(out[0], refUndef) {
				return false
			}
			// Propagation happens in the main loop before the next decision.
		default:
			// The clause is appended at the arena top, beyond any
			// tombstones still awaiting compaction; it is relocated like
			// any other live clause at the next GC. attach routes by size,
			// so an imported binary clause lands directly in the fast
			// implication tier (portfolio sharing favors short clauses —
			// binary imports are the common case). The exporter's glue
			// (capped by the simplified length) places the clause in its
			// retention tier like a native learnt clause.
			c := s.ca.alloc(out, true)
			glue := item.glue
			if glue > len(out) {
				glue = len(out)
			}
			s.ca.setGlue(c, glue)
			t := s.tierFor(glue, len(out))
			s.ca.setTier(c, t)
			s.ca.setTouched(c)
			s.tierGaugeAdd(t, 1)
			s.learnts = append(s.learnts, c)
			s.attach(c)
			s.notePeak()
		}
	}
	return true
}
