package core

import "berkmin/internal/cnf"

// bumpVar increments a variable's activity and keeps the strategy-3 heap
// (when enabled) consistent; the scan's candidate list is emptied.
func (d *berkminDecider) bumpVar(v cnf.Var) {
	d.varAct[v]++
	d.candN = 0
	if d.s.opt.OptimizedGlobalPick {
		d.order.bumped(v)
	}
}

// decay ages the dynamic activity counters. Chaff periodically divides its
// literal counters by a constant so the search focuses on the youngest
// clauses (§3); BerkMin inherits the idea for its variable activities. The
// lit_activity counters of §7 are deliberately *not* aged: they count the
// conflict clauses ever deduced, which is what database symmetrization
// needs. The uniform division never reverses an order, so the activity
// heaps stay valid without a rebuild; it can merge two activities into a
// tie, though, which reorders the scan's candidates, so their list goes.
func (d *berkminDecider) decay() {
	d.candN = 0
	div := d.s.opt.AgingDivisor
	for v := range d.varAct {
		d.varAct[v] /= div
	}
	for l := range d.chaffAct {
		d.chaffAct[l] /= div
	}
}

// onNewQuery fades the previous queries' influence with one extra aging
// step: the integer counters keep their relative order (the heaps stay
// valid) but weigh less against the coming query's bumps. QueryDecay's
// magnitude is ignored here — BerkMin's counters age by division, so the
// configured AgingDivisor is the natural step.
func (d *berkminDecider) onNewQuery() { d.decay() }
