package core

import "berkmin/internal/cnf"

// evsidsDecider implements EVSIDS — exponential VSIDS in the MiniSat
// lineage, the heuristic that displaced BerkMin's clause-activity branching.
// Instead of periodically dividing integer counters (Chaff's aging, §3),
// the bump increment itself grows geometrically by 1/evsidsVarDecay per
// conflict: a bump at conflict t is worth (1/evsidsVarDecay)^t, which is
// equivalent to decaying every other variable's activity by evsidsVarDecay
// each conflict — one multiplication per conflict instead of a full-array
// sweep. Activities are float64 and are rescaled by 1e-100 when they
// threaten overflow (the rescale is uniform and monotone, so the pick heap
// survives it).
//
// Variable selection is always heap-based (there is no naive-scan variant;
// OptimizedGlobalPick is implied). Polarity falls back to the solver's
// shared rule: saved phase when enabled, else the §7 nb_two cost function.
type evsidsDecider struct {
	s     *Solver
	act   []float64 // per variable: exponentially weighted activity
	inc   float64   // current bump increment
	order actHeap[cnf.Var, float64]
}

const (
	// evsidsVarDecay is the per-conflict activity decay factor, in (0, 1).
	evsidsVarDecay      = 0.95
	evsidsRescaleLimit  = 1e100
	evsidsRescaleFactor = 1e-100
)

func newEvsidsDecider(s *Solver) *evsidsDecider {
	d := &evsidsDecider{s: s, inc: 1}
	d.order.act = &d.act
	return d
}

func (d *evsidsDecider) hooksAssigns() bool { return false }
func (d *evsidsDecider) onAssign(cnf.Lit)   {}

// decay is a no-op: the exponential decay is folded into the growing
// increment (onConflict), so Options.AgingPeriod does not apply.
func (d *evsidsDecider) decay() {}

// onNewQuery scales every activity by QueryDecay while leaving the bump
// increment alone, so the coming query's bumps weigh relatively more than
// the accumulated history. The uniform scaling is order-preserving — the
// heap stays valid without a rebuild.
func (d *evsidsDecider) onNewQuery() {
	f := d.s.opt.QueryDecay
	for v := range d.act {
		d.act[v] *= f
	}
}

func (d *evsidsDecider) onConflict() {
	// Growing the increment decays every existing activity relative to
	// future bumps. Guard the increment itself: a conflict-rich search with
	// few bumped variables must not push it to +Inf.
	d.inc *= 1 / evsidsVarDecay
	if d.inc > evsidsRescaleLimit {
		d.rescale()
	}
}

func (d *evsidsDecider) bump(v cnf.Var) {
	d.act[v] += d.inc
	if d.act[v] > evsidsRescaleLimit {
		d.rescale()
	}
	d.order.bumped(v)
}

// rescale multiplies every activity and the increment by 1e-100. The
// scaling is uniform, so relative order — and the heap — is preserved.
func (d *evsidsDecider) rescale() {
	for i := range d.act {
		d.act[i] *= evsidsRescaleFactor
	}
	d.inc *= evsidsRescaleFactor
	d.s.stats.ActivityRescales++
}

// onAntecedent bumps every variable of a responsible clause under the
// paper's sensitivity rule (§4); EVSIDS presets keep SensitivityResponsible,
// which matches MiniSat's bump-on-resolution.
func (d *evsidsDecider) onAntecedent(lits []cnf.Lit) {
	if d.s.opt.Sensitivity != SensitivityResponsible {
		return
	}
	for _, q := range lits {
		d.bump(q.Var())
	}
}

func (d *evsidsDecider) onLearnt(lits []cnf.Lit, glue int) {
	if d.s.opt.Sensitivity != SensitivityConflictClause {
		return
	}
	for _, q := range lits {
		d.bump(q.Var())
	}
}

func (d *evsidsDecider) onUnassign(v cnf.Var) { d.order.insert(v) }

// pick pops the most active variable, lazily discarding entries assigned
// since insertion (assignments made by BCP or assumptions stay in the heap
// until popped).
func (d *evsidsDecider) pick() cnf.Lit {
	s := d.s
	for {
		v := d.order.pop()
		if v == 0 {
			return cnf.LitUndef
		}
		if s.assigns[v] != lUndef {
			continue
		}
		s.stats.GlobalDecisions++
		return s.nbTwoPolarity(v)
	}
}

func (d *evsidsDecider) rebuild(n int) {
	old := len(d.act) - 1
	if old < 0 {
		old = 0
	}
	for len(d.act) <= n {
		d.act = append(d.act, 0)
	}
	for v := cnf.Var(old + 1); int(v) <= n; v++ {
		d.order.insert(v)
	}
}

func (d *evsidsDecider) rearmHeap() {
	d.order.clear()
	for v := cnf.Var(1); int(v) <= d.s.nVars; v++ {
		d.order.insert(v)
	}
}

func (d *evsidsDecider) reset() {
	clear(d.act)
	d.inc = 1
	d.rearmHeap()
}

// reconfigure rebuilds the pick heap and keeps both the activities and the
// increment: the increment encodes the scale bumps have reached, so
// resetting it alone would freeze the kept activities.
func (d *evsidsDecider) reconfigure() { d.rearmHeap() }

func (d *evsidsDecider) clone(ns *Solver) decider {
	c := &evsidsDecider{
		s:   ns,
		act: append([]float64(nil), d.act...),
		inc: d.inc,
	}
	c.order = cloneHeap(&d.order, &c.act)
	return c
}
