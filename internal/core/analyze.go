package core

import "berkmin/internal/cnf"

// analyze performs first-UIP conflict analysis (§2): it walks the
// implication graph backwards from the conflicting clause, resolving on
// current-level variables until a single current-level literal (the first
// unique implication point) remains. It returns the learnt clause — with the
// asserting literal in slot 0 and a highest-level other literal in slot 1 —
// and the backtrack level.
//
// Every antecedent expanded along the way is a "clause responsible for the
// conflict" (§2): BerkMin's sensitivity rule (§4) bumps var_activity once
// per literal occurrence in each of them, and clause_activity(C) counts the
// conflicts C has been responsible for (§8).
func (s *Solver) analyze(confl clauseRef) ([]cnf.Lit, int) {
	if s.debugConflict != nil {
		s.debugConflict(confl)
	}
	learnt := s.analyzeBuf[:0]
	learnt = append(learnt, cnf.LitUndef) // slot 0: asserting literal

	level := int32(s.decisionLevel())
	counter := 0
	p := cnf.LitUndef
	idx := len(s.trail) - 1

	for {
		if confl == refBin {
			// Binary antecedent (p ∨ q), literal-encoded: resolve on q
			// directly, no arena load. Clause activity is not bumped —
			// binary clauses are never deletion candidates (reduce.go), so
			// their activity is dead weight — but the clause is still
			// responsible for the conflict, so the decider sees it (the §4
			// sensitivity rule bumps both variables).
			q := s.binReason[p.Var()]
			s.anteBin[0], s.anteBin[1] = p, q
			s.dec.onAntecedent(s.anteBin[:])
			v := q.Var()
			if !s.seen[v] && s.vlevel[v] != 0 {
				s.seen[v] = true
				if s.vlevel[v] == level {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		} else {
			s.bumpResponsible(confl)
			start := 0
			if p != cnf.LitUndef {
				start = 1 // skip the propagated literal itself
			}
			for _, q := range s.ca.lits(confl)[start:] {
				v := q.Var()
				if s.seen[v] || s.vlevel[v] == 0 {
					continue
				}
				s.seen[v] = true
				if s.vlevel[v] == level {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Select the next current-level literal to expand, scanning the
		// trail backwards.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	if s.opt.MinimizeLearnt {
		learnt = s.minimize(learnt)
	}

	// Glue (LBD) of the final learnt clause: every literal is still
	// assigned here (backtracking happens after analyze returns), so the
	// distinct-level count is exact. record consumes it via lastGlue.
	s.lastGlue = s.computeGlue(learnt)

	// Hand the final learnt clause to the decider while its literals are
	// still assigned (Chaff-style conflict-clause bumps, VSIDS literal
	// counters, §7 lit_activity, LRB participation).
	s.dec.onLearnt(learnt, s.lastGlue)

	// Find the backtrack level: the highest level among the non-asserting
	// literals; move such a literal to slot 1 so it can be watched.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.vlevel[learnt[i].Var()] > s.vlevel[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.vlevel[learnt[1].Var()])
	}

	// Clear the seen marks of the literals kept in the learnt clause.
	for _, q := range learnt[1:] {
		s.seen[q.Var()] = false
	}
	s.analyzeBuf = learnt // reuse the buffer next time

	// The returned slice is the analysis scratch buffer: valid until the
	// next analyze call. record copies it into the arena immediately, so
	// the search loop learns a clause without a single heap allocation.
	return learnt, btLevel
}

// bumpResponsible applies BerkMin's sensitivity rule (§4) and clause
// activity accounting (§8) to one clause responsible for the conflict.
// Under the tiered database it additionally marks the clause as touched
// and recomputes its glue — every literal of an antecedent is assigned
// during analysis, so the distinct-level count is exact — promoting the
// clause when the glue improved (the Glucose "update LBD on use" rule).
func (s *Solver) bumpResponsible(c clauseRef) {
	s.ca.bumpAct(c)
	if s.opt.Reduce == ReduceTiered && s.ca.learnt(c) {
		s.ca.setTouched(c)
		if g := s.ca.glue(c); g > coreGlue {
			if ng := s.computeGlue(s.ca.lits(c)); ng < g {
				s.ca.setGlue(c, ng)
				s.promoteTier(c, ng)
			}
		}
	}
	s.dec.onAntecedent(s.ca.lits(c))
}

// computeGlue returns the clause's glue — the number of distinct decision
// levels among its literals (LBD, "literals blocks distance"). Every
// literal must be assigned. One stamped pass over glueSeen, no clearing,
// no allocation.
func (s *Solver) computeGlue(lits []cnf.Lit) int {
	s.glueStamp++
	if s.glueStamp == 0 { // stamp wrapped: reset the scratch once
		clear(s.glueSeen)
		s.glueStamp = 1
	}
	g := 0
	for _, l := range lits {
		lv := s.vlevel[l.Var()]
		if s.glueSeen[lv] != s.glueStamp {
			s.glueSeen[lv] = s.glueStamp
			g++
		}
	}
	return g
}

// minimize removes learnt-clause literals whose negation is implied by the
// rest of the clause through their antecedents (local self-subsumption, a
// post-BerkMin technique kept behind Options.MinimizeLearnt). On entry the
// seen flags of learnt[1:] are still set from the analysis loop; on exit all
// flags for removed literals are cleared (the caller clears the kept ones).
func (s *Solver) minimize(learnt []cnf.Lit) []cnf.Lit {
	orig := append([]cnf.Lit(nil), learnt[1:]...)
	out := learnt[:1]
	for _, q := range orig {
		r := s.reason[q.Var()]
		if r == refUndef {
			out = append(out, q)
			continue
		}
		redundant := true
		if r == refBin {
			// Literal-encoded binary antecedent: the only other literal is
			// the implying one.
			v := s.binReason[q.Var()].Var()
			redundant = s.seen[v] || s.vlevel[v] == 0
		} else {
			for _, x := range s.ca.lits(r)[1:] {
				v := x.Var()
				if !s.seen[v] && s.vlevel[v] != 0 {
					redundant = false
					break
				}
			}
		}
		if !redundant {
			out = append(out, q)
		}
	}
	for _, q := range orig {
		s.seen[q.Var()] = false
	}
	return out
}

// record integrates a freshly learnt clause: it pushes the clause on the
// conflict-clause stack, watches it and asserts its first literal (the
// activity updates — lit_activity included — happened in analyze via the
// decider's onLearnt hook). Unit learnt clauses become level-0
// assignments — the paper's "retained assignments" that survive restarts
// and database cleanings (§8).
func (s *Solver) record(learnt []cnf.Lit) {
	if s.debugLearnt != nil {
		s.debugLearnt(learnt)
	}
	s.stats.LearntTotal++
	glue := s.lastGlue
	s.noteGlue(glue)
	s.exportLearnt(learnt, glue)
	s.proof.Add(learnt)
	if len(learnt) == 1 {
		// Asserted at level 0; nothing is stored, the assignment is kept.
		s.enqueue(learnt[0], refUndef)
		return
	}
	c := s.ca.alloc(learnt, true)
	s.ca.setGlue(c, glue)
	t := s.tierFor(glue, len(learnt))
	s.ca.setTier(c, t)
	s.ca.setTouched(c)
	s.tierGaugeAdd(t, 1)
	s.learnts = append(s.learnts, c)
	s.attach(c)
	s.notePeak()
	if len(learnt) == 2 {
		// Binary learnt clause: assert through the fast tier so the reason
		// is literal-encoded like every other binary implication.
		s.enqueueBin(learnt[0], learnt[1])
	} else {
		s.enqueue(learnt[0], c)
	}
}
