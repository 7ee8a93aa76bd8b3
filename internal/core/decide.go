package core

import "berkmin/internal/cnf"

// berkminDecider is the paper's branching plane: it implements §5
// (mobility: branch on the current top clause), §7 (branch selection /
// database symmetrization and the nb_two cost function) and the paper's
// ablations. One implementation serves all three legacy DecisionModes —
// they share the same activity state and differ only in the picking rule —
// so Reconfigure between them keeps the heuristic's memory.
type berkminDecider struct {
	s *Solver

	varAct   []int64 // per variable: BerkMin var_activity (§4)
	litAct   []int64 // per literal: lit_activity, conflict clauses ever containing l (§7); never aged
	chaffAct []int64 // per literal: Chaff VSIDS counter (aged)

	// order is the strategy-3 activity heap over variables (BerkMin561
	// Remark 1, Options.OptimizedGlobalPick) keyed by varAct.
	order varHeap
	// litOrder is the Chaff counterpart over literals, keyed by chaffAct:
	// active only for DecideChaffLiteral + OptimizedGlobalPick, it replaces
	// decideChaff's O(nVars·2) scan with a heap pop (see BenchmarkDecide's
	// chaff-scan vs chaff-heap pair). Tie-breaking differs from the scan's
	// lowest-literal rule, so it is opt-in rather than the chaff default.
	litOrder actHeap[cnf.Lit, int64]
}

func newBerkminDecider(s *Solver) *berkminDecider {
	d := &berkminDecider{s: s}
	d.order.act = &d.varAct
	d.litOrder.act = &d.chaffAct
	return d
}

func (d *berkminDecider) onConflict() {}

// chaffHeap reports whether the literal heap is the active pick structure.
func (d *berkminDecider) chaffHeap() bool {
	return d.s.opt.Decision == DecideChaffLiteral && d.s.opt.OptimizedGlobalPick
}

// onBacktrack returns the unassigned variables to the active pick heap;
// the naive scans need no bookkeeping.
func (d *berkminDecider) onBacktrack(unassigned []cnf.Lit) {
	switch {
	case d.chaffHeap():
		for i := len(unassigned) - 1; i >= 0; i-- {
			v := unassigned[i].Var()
			d.litOrder.insert(cnf.PosLit(v))
			d.litOrder.insert(cnf.NegLit(v))
		}
	case d.s.opt.OptimizedGlobalPick:
		for i := len(unassigned) - 1; i >= 0; i-- {
			d.order.insert(unassigned[i].Var())
		}
	}
}

func (d *berkminDecider) onAntecedent(lits []cnf.Lit) {
	if d.s.opt.Sensitivity != SensitivityResponsible {
		return
	}
	for _, q := range lits {
		d.bumpVar(q.Var())
	}
}

func (d *berkminDecider) onLearnt(lits []cnf.Lit, glue int) {
	// Chaff-style activity updates operate on the final learnt clause only.
	if d.s.opt.Sensitivity == SensitivityConflictClause {
		for _, q := range lits {
			d.bumpVar(q.Var())
		}
	}
	// Chaff VSIDS literal counters always follow the learnt clause.
	ch := d.chaffHeap()
	for _, q := range lits {
		d.chaffAct[q]++
		if ch {
			d.litOrder.bumped(q)
		}
	}
	// lit_activity (§7): the count of conflict clauses ever containing the
	// literal, which is what database symmetrization needs; never aged.
	for _, q := range lits {
		d.litAct[q]++
	}
}

func (d *berkminDecider) pick() cnf.Lit {
	switch d.s.opt.Decision {
	case DecideChaffLiteral:
		return d.pickChaff()
	case DecideGlobalMostActive:
		return d.pickGlobalMostActive()
	default:
		return d.pickBerkMin()
	}
}

// pickBerkMin: if some conflict clause is unsatisfied, branch on the most
// active free variable of the current top clause (§5); otherwise branch on
// the most active free variable of the whole formula with nb_two polarity
// (§7).
func (d *berkminDecider) pickBerkMin() cnf.Lit {
	s := d.s
	if c, r := s.currentTopClause(); c != refUndef {
		s.stats.TopClauseDecisions++
		s.stats.Skin.record(r)
		v := d.mostActiveFreeInClause(c)
		return d.topClausePolarity(v, c)
	}
	v := d.mostActiveFreeVar()
	if v == 0 {
		return cnf.LitUndef
	}
	s.stats.GlobalDecisions++
	return s.nbTwoPolarity(v)
}

// pickGlobalMostActive is the Less_mobility ablation (Table 2): the
// variable choice ignores the stack, but the polarity logic is unchanged so
// the ablation isolates variable selection, as in the paper.
func (d *berkminDecider) pickGlobalMostActive() cnf.Lit {
	s := d.s
	v := d.mostActiveFreeVar()
	if v == 0 {
		return cnf.LitUndef
	}
	if c, r := s.currentTopClause(); c != refUndef {
		s.stats.TopClauseDecisions++
		s.stats.Skin.record(r)
		if s.ca.has(c, cnf.PosLit(v)) || s.ca.has(c, cnf.NegLit(v)) {
			return d.topClausePolarity(v, c)
		}
		return d.litActivityPolarity(v)
	}
	s.stats.GlobalDecisions++
	return s.nbTwoPolarity(v)
}

// pickChaff is Chaff's VSIDS: the free literal with the largest aged
// conflict-occurrence counter; the literal itself fixes the polarity. With
// OptimizedGlobalPick the scan is replaced by the literal heap.
func (d *berkminDecider) pickChaff() cnf.Lit {
	s := d.s
	if d.chaffHeap() {
		for {
			l := d.litOrder.pop()
			if l == cnf.LitUndef {
				return cnf.LitUndef
			}
			if s.vals[l] == lUndef {
				s.stats.GlobalDecisions++
				return l
			}
		}
	}
	best := cnf.LitUndef
	bestAct := int64(-1)
	for v := cnf.Var(1); int(v) <= s.nVars; v++ {
		if s.vals[cnf.PosLit(v)] != lUndef {
			continue
		}
		for _, l := range [2]cnf.Lit{cnf.PosLit(v), cnf.NegLit(v)} {
			if a := d.chaffAct[l]; a > bestAct {
				best, bestAct = l, a
			}
		}
	}
	if best != cnf.LitUndef {
		s.stats.GlobalDecisions++
	}
	return best
}

// currentTopClause returns the unsatisfied conflict clause closest to the
// top of the stack and its distance r from the top (§5, §6), or refUndef if
// every conflict clause is satisfied.
func (s *Solver) currentTopClause() (clauseRef, int) {
	for i := len(s.learnts) - 1; i >= 0; i-- {
		c := s.learnts[i]
		if !s.satisfied(c) {
			return c, len(s.learnts) - 1 - i
		}
	}
	return refUndef, 0
}

// mostActiveFreeInClause returns the free variable of c with the largest
// var_activity. After BCP an unsatisfied clause always has a free literal.
func (d *berkminDecider) mostActiveFreeInClause(c clauseRef) cnf.Var {
	s := d.s
	var best cnf.Var
	bestAct := int64(-1)
	for _, l := range s.ca.lits(c) {
		if s.vals[l] != lUndef {
			continue
		}
		v := l.Var()
		if a := d.varAct[v]; a > bestAct || (a == bestAct && v < best) {
			best, bestAct = v, a
		}
	}
	return best
}

// mostActiveFreeVar returns the free variable with the largest var_activity
// over the whole formula. The paper's main text uses a naive scan; BerkMin561
// ("strategy 3", Remark 1) optimizes this — enabled by
// Options.OptimizedGlobalPick via the activity-ordered heap.
func (d *berkminDecider) mostActiveFreeVar() cnf.Var {
	s := d.s
	if s.opt.OptimizedGlobalPick {
		for {
			v := d.order.pop()
			if v == 0 || s.vals[cnf.PosLit(v)] == lUndef {
				return v
			}
		}
	}
	var best cnf.Var
	bestAct := int64(-1)
	// p walks the positive literals (PosLit(v) == 2v) of variables
	// 1..nVars, so the assigned-variable path is one byte load with no
	// bounds check; a variable-indexed loop over vals[PosLit(v)] ran
	// BenchmarkDecide/berkmin about 10 % slower.
	vals, act := s.vals, d.varAct
	for p := 2; p < len(vals); p += 2 {
		if vals[p] != lUndef {
			continue
		}
		if a := act[p>>1]; a > bestAct {
			best, bestAct = cnf.Var(p>>1), a
		}
	}
	return best
}

// savedPhase returns the phase-saving override for v, or LitUndef when
// disabled or no phase has been recorded yet.
func (s *Solver) savedPhase(v cnf.Var) cnf.Lit {
	if !s.opt.PhaseSaving {
		return cnf.LitUndef
	}
	switch s.phase[v] {
	case lTrue:
		return cnf.PosLit(v)
	case lFalse:
		return cnf.NegLit(v)
	}
	return cnf.LitUndef
}

// topClausePolarity chooses which branch of v to explore first for a
// decision made on the current top clause c, honoring the configured
// heuristic (Table 4).
func (d *berkminDecider) topClausePolarity(v cnf.Var, c clauseRef) cnf.Lit {
	s := d.s
	if l := s.savedPhase(v); l != cnf.LitUndef {
		return l
	}
	inClause := cnf.PosLit(v)
	if !s.ca.has(c, inClause) {
		inClause = cnf.NegLit(v)
	}
	switch s.opt.Polarity {
	case PolaritySatTop:
		return inClause
	case PolarityUnsatTop:
		return inClause.Not()
	case PolarityTake0:
		return cnf.NegLit(v)
	case PolarityTake1:
		return cnf.PosLit(v)
	case PolarityTakeRand:
		if s.rng.coin() {
			return cnf.PosLit(v)
		}
		return cnf.NegLit(v)
	default:
		return d.litActivityPolarity(v)
	}
}

// litActivityPolarity is BerkMin's database-symmetrization rule (§7):
// explore first the branch whose conflicts will produce the literal that has
// so far appeared in fewer conflict clauses. With lit_activity(¬x) >
// lit_activity(x), branch x=0 is taken first, since clauses learnt under
// x=0 contain the positive literal x. Ties are broken randomly.
func (d *berkminDecider) litActivityPolarity(v cnf.Var) cnf.Lit {
	pos, neg := d.litAct[cnf.PosLit(v)], d.litAct[cnf.NegLit(v)]
	var rare cnf.Lit
	switch {
	case pos < neg:
		rare = cnf.PosLit(v)
	case neg < pos:
		rare = cnf.NegLit(v)
	default:
		if d.s.rng.coin() {
			rare = cnf.PosLit(v)
		} else {
			rare = cnf.NegLit(v)
		}
	}
	// Branching on ¬rare makes future conflict clauses contain rare.
	return rare.Not()
}

// rebuild grows the activity arrays to n variables and registers the new
// variables in the active pick heap.
func (d *berkminDecider) rebuild(n int) {
	old := len(d.varAct) - 1
	if old < 0 {
		old = 0
	}
	for len(d.varAct) <= n {
		d.varAct = append(d.varAct, 0)
	}
	for len(d.litAct) <= 2*n+1 {
		d.litAct = append(d.litAct, 0)
		d.chaffAct = append(d.chaffAct, 0)
	}
	if !d.s.opt.OptimizedGlobalPick {
		return
	}
	if d.s.opt.Decision == DecideChaffLiteral {
		for v := cnf.Var(old + 1); int(v) <= n; v++ {
			d.litOrder.insert(cnf.PosLit(v))
			d.litOrder.insert(cnf.NegLit(v))
		}
		return
	}
	for v := cnf.Var(old + 1); int(v) <= n; v++ {
		d.order.insert(v)
	}
}

// rearmHeaps rebuilds (or tears down) the pick heaps required by the
// current options, over the current activity values.
func (d *berkminDecider) rearmHeaps() {
	useVarHeap := d.s.opt.OptimizedGlobalPick && d.s.opt.Decision != DecideChaffLiteral
	useLitHeap := d.chaffHeap()
	if useVarHeap {
		d.order.heap = d.order.heap[:0]
		clear(d.order.pos)
		for v := cnf.Var(1); int(v) <= d.s.nVars; v++ {
			d.order.insert(v)
		}
	} else {
		d.order.heap = nil
		d.order.pos = nil
	}
	if useLitHeap {
		d.litOrder.heap = d.litOrder.heap[:0]
		clear(d.litOrder.pos)
		for v := cnf.Var(1); int(v) <= d.s.nVars; v++ {
			d.litOrder.insert(cnf.PosLit(v))
			d.litOrder.insert(cnf.NegLit(v))
		}
	} else {
		d.litOrder.heap = nil
		d.litOrder.pos = nil
	}
}

func (d *berkminDecider) reset() {
	clear(d.varAct)
	clear(d.litAct)
	clear(d.chaffAct)
	d.rearmHeaps()
}

func (d *berkminDecider) reconfigure() { d.rearmHeaps() }

func (d *berkminDecider) clone(ns *Solver) decider {
	c := &berkminDecider{
		s:        ns,
		varAct:   append([]int64(nil), d.varAct...),
		litAct:   append([]int64(nil), d.litAct...),
		chaffAct: append([]int64(nil), d.chaffAct...),
	}
	// The heaps key themselves through a pointer to the activity array;
	// they must point at the clone's copy, not the original's.
	c.order = cloneHeap(&d.order, &c.varAct)
	c.litOrder = cloneHeap(&d.litOrder, &c.chaffAct)
	return c
}

// nbTwoPolarity implements §7's cost function for decisions made on the
// original formula: nb_two(l) approximates the BCP power of setting l to 0
// by counting currently-binary clauses containing l plus, for each such
// clause (l ∨ v), the currently-binary clauses containing ¬v. The literal
// with the larger cost is set to 0 (i.e. its negation is enqueued); equal
// costs pick a random side. Computation stops beyond NbTwoThreshold.
//
// It lives on the Solver (the state it reads — binOcc, phases, the PRNG —
// is solver state), and serves as the shared fallback polarity rule for the
// EVSIDS and LRB deciders too.
func (s *Solver) nbTwoPolarity(v cnf.Var) cnf.Lit {
	if l := s.savedPhase(v); l != cnf.LitUndef {
		return l
	}
	pos := s.nbTwo(cnf.PosLit(v))
	neg := s.nbTwo(cnf.NegLit(v))
	var chosen cnf.Lit
	switch {
	case pos > neg:
		chosen = cnf.PosLit(v)
	case neg > pos:
		chosen = cnf.NegLit(v)
	default:
		if s.rng.coin() {
			chosen = cnf.PosLit(v)
		} else {
			chosen = cnf.NegLit(v)
		}
	}
	return chosen.Not() // assign the value that sets the chosen literal to 0
}

// nbTwo computes the §7 cost function for literal l, stopping once the
// value exceeds the threshold (100 in the paper's experiments).
//
// It runs on the binary tier: binOcc[l] lists the partner literal of every
// live binary problem clause (l ∨ partner), so the count is an O(1)
// len() lookup (the zero fast path) plus one short walk over partner
// literals — no clause scans, no arena loads. The lists are corrected for
// assignments on the fly: a partner assigned true means the clause is
// satisfied, and with BCP at a fixed point a false partner cannot coexist
// with an unassigned l (the clause would have propagated), so skipping
// every assigned partner counts exactly the currently-binary clauses.
//
// This deliberately narrows the paper's "currently binary" to the
// structural binary tier: a long clause whose other literals all happen to
// be false no longer contributes. Re-deriving those on every fresh
// decision is the O(occ²) full-database scan this tier exists to kill; the
// trade is the standard one (see nbTwoScan in the tests for the reference
// semantics the differential suite compares against).
func (s *Solver) nbTwo(l cnf.Lit) int {
	partners := s.binOcc[l]
	if len(partners) == 0 {
		return 0
	}
	threshold := s.opt.NbTwoThreshold
	total := 0
	for _, w := range partners {
		if s.value(w) != lUndef {
			continue // true: satisfied; false: unit, not binary
		}
		total++
		// Count binary clauses containing ¬w: after l=0 forces w=1, these
		// clauses propagate further.
		for _, u := range s.binOcc[w.Not()] {
			if s.value(u) != lUndef {
				continue
			}
			total++
			if total > threshold {
				return total
			}
		}
		if total > threshold {
			return total
		}
	}
	return total
}
