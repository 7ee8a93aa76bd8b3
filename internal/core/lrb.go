package core

import "berkmin/internal/cnf"

// lrbDecider implements LRB — learning-rate branching (MapleSAT lineage),
// the reward-based successor of EVSIDS. Each variable's activity is an
// exponential moving average of its "learning rate": the fraction of
// conflicts it participated in (appeared in a learnt clause or a clause
// responsible for one) during its assignment interval,
//
//	reward(v) = participated(v) / (conflicts_now − conflicts_when_assigned),
//
// folded in at unassignment with step alpha. Alpha anneals from lrbAlpha
// down to lrbAlphaMin by lrbAlphaStep per conflict, shifting from fast
// adaptation to a long memory. The locality extension multiplies the
// activity of every *unassigned* variable by lrbLocality each conflict, so
// variables off the current search trajectory fade.
//
// This is the one decider that needs assignment times; no hook reports
// assignments, so each hook first stamps the trail suffix it has not seen.
// Stamped variables leave the pick heap, so at every hook entry it holds
// exactly the unassigned variables — which makes the locality decay a walk
// over its backing array (uniform scaling keeps the heap valid).
type lrbDecider struct {
	s            *Solver
	act          []float64 // per variable: EMA of the learning rate
	assignedAt   []uint64  // per variable: conflict count when assigned
	participated []uint32  // per variable: conflicts participated in since assignment
	alpha        float64   // current EMA step, annealed per conflict
	conflicts    uint64    // decider-lifetime conflict counter
	stamped      int       // trail length already stamped: trail[stamped:] is unseen
	order        actHeap[cnf.Var, float64]
}

// The LRB schedule: alpha starts at lrbAlpha and anneals by lrbAlphaStep
// per conflict down to lrbAlphaMin; lrbLocality fades every unassigned
// variable's activity per conflict.
const (
	lrbAlpha     = 0.4
	lrbAlphaMin  = 0.06
	lrbAlphaStep = 1e-6
	lrbLocality  = 0.95
)

func newLrbDecider(s *Solver) *lrbDecider {
	d := &lrbDecider{s: s, alpha: lrbAlpha}
	d.order.act = &d.act
	return d
}

// decay is a no-op: LRB's decay is the per-conflict alpha anneal and
// locality fade (onConflict); Options.AgingPeriod does not apply.
func (d *lrbDecider) decay() {}

// onNewQuery scales every reward average by QueryDecay (uniform, so the
// heap order is preserved) and re-boosts the EMA step back to lrbAlpha:
// the new query's conflicts should re-shape the averages quickly, the way
// a fresh lifetime would, without discarding what transfers.
func (d *lrbDecider) onNewQuery() {
	d.stamp()
	f := d.s.opt.QueryDecay
	for v := range d.act {
		d.act[v] *= f
	}
	d.alpha = lrbAlpha
}

// stamp opens every hook: each assignment made since the previous hook
// starts its interval and leaves the heap, in trail order. The conflict
// counter moves only in onConflict, so stamps and heap operations are what
// they would have been at assignment time.
func (d *lrbDecider) stamp() {
	trail := d.s.trail
	for _, l := range trail[d.stamped:] {
		v := l.Var()
		d.assignedAt[v] = d.conflicts
		d.participated[v] = 0
		d.order.remove(v)
	}
	d.stamped = len(trail)
}

// onBacktrack folds each unassigned variable's interval reward into its
// average and returns it to the heap.
func (d *lrbDecider) onBacktrack(unassigned []cnf.Lit) {
	d.stamp()
	for i := len(unassigned) - 1; i >= 0; i-- {
		v := unassigned[i].Var()
		if interval := d.conflicts - d.assignedAt[v]; interval > 0 {
			reward := float64(d.participated[v]) / float64(interval)
			d.act[v] = (1-d.alpha)*d.act[v] + d.alpha*reward
		}
		d.order.insert(v)
	}
	d.stamped -= len(unassigned)
}

// onConflict runs after analysis and before backtracking: the counter
// advances first, so variables unassigned by the coming backtrack see an
// interval that includes the conflict they just participated in.
func (d *lrbDecider) onConflict() {
	d.stamp()
	d.conflicts++
	if d.alpha > lrbAlphaMin {
		d.alpha -= lrbAlphaStep
		if d.alpha < lrbAlphaMin {
			d.alpha = lrbAlphaMin
		}
	}
	// Locality extension: fade the unassigned variables — exactly the
	// heap's members.
	for _, v := range d.order.heap {
		d.act[v] *= lrbLocality
	}
}

func (d *lrbDecider) onAntecedent(lits []cnf.Lit) {
	d.stamp()
	for _, q := range lits {
		d.participated[q.Var()]++
	}
}

func (d *lrbDecider) onLearnt(lits []cnf.Lit, glue int) {
	d.stamp()
	for _, q := range lits {
		d.participated[q.Var()]++
	}
}

// pick pops the most active unassigned variable. After stamp the heap
// holds exactly the unassigned variables, so the first pop is the answer.
func (d *lrbDecider) pick() cnf.Lit {
	d.stamp()
	return d.s.pickFree(&d.order)
}

// rebuild stamps once the arrays cover every variable the trail names.
func (d *lrbDecider) rebuild(n int) {
	old := len(d.act) - 1
	if old < 0 {
		old = 0
	}
	for len(d.act) <= n {
		d.act = append(d.act, 0)
		d.assignedAt = append(d.assignedAt, 0)
		d.participated = append(d.participated, 0)
	}
	d.stamp()
	for v := cnf.Var(old + 1); int(v) <= n; v++ {
		if d.s.vals[cnf.PosLit(v)] == lUndef {
			d.order.insert(v)
		}
	}
}

// rearmHeap stamps, then rebuilds the pick heap over the unassigned
// variables only (retained level-0 assignments must stay out).
func (d *lrbDecider) rearmHeap() {
	d.stamp()
	d.order.clear()
	for v := cnf.Var(1); int(v) <= d.s.nVars; v++ {
		if d.s.vals[cnf.PosLit(v)] == lUndef {
			d.order.insert(v)
		}
	}
}

func (d *lrbDecider) reset() {
	clear(d.act)
	clear(d.assignedAt)
	clear(d.participated)
	d.alpha = lrbAlpha
	d.conflicts = 0
	d.rearmHeap()
}

// reconfigure re-arms the alpha schedule and rebuilds the heap;
// activities, intervals and the conflict counter are kept — the interval
// bookkeeping references the running counter, so it must not rewind while
// variables are assigned.
func (d *lrbDecider) reconfigure() {
	d.alpha = lrbAlpha
	d.rearmHeap()
}

func (d *lrbDecider) clone(ns *Solver) decider {
	c := &lrbDecider{
		s:            ns,
		act:          append([]float64(nil), d.act...),
		assignedAt:   append([]uint64(nil), d.assignedAt...),
		participated: append([]uint32(nil), d.participated...),
		alpha:        d.alpha,
		conflicts:    d.conflicts,
		stamped:      d.stamped,
	}
	c.order = cloneHeap(&d.order, &c.act)
	return c
}
