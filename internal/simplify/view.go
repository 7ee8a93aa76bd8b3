package simplify

import "berkmin/internal/cnf"

// View is a per-solver handle on a shared, immutable Outcome: it records
// which eliminations this solver has reverted. One preprocessing result
// may back many solvers — a snapshot fanned out to a pool, portfolio
// members, or concurrent query workers — so the restored flags live on the
// solver's side. Restore reads the shared clause record without touching
// it, and Extend consults the view's flags; any number of views can
// restore and extend independently and concurrently.
type View struct {
	out      *Outcome
	index    map[cnf.Var]int // eliminated variable -> index into out.Elims; read-only, shared by clones
	restored []bool          // per Elims index; view-local
}

// NewView returns a fresh view of the outcome with no eliminations
// restored.
func (o *Outcome) NewView() *View {
	index := make(map[cnf.Var]int, len(o.Elims))
	for i, e := range o.Elims {
		index[e.V] = i
	}
	return &View{out: o, index: index, restored: make([]bool, len(o.Elims))}
}

// Outcome returns the shared preprocessing result backing the view.
func (v *View) Outcome() *Outcome { return v.out }

// Clone returns an independent copy of the view (same shared outcome, own
// restored flags) — the companion of a solver clone.
func (v *View) Clone() *View {
	return &View{out: v.out, index: v.index, restored: append([]bool(nil), v.restored...)}
}

// Restore reverts the elimination of x in this view only: it returns the
// recorded original clauses for the caller to re-add to its solver and
// stops Extend from synthesizing a value for x. The shared outcome is not
// modified, so sibling views are unaffected. The returned clauses may
// mention variables eliminated after x — the caller must restore those
// transitively, or their reconstruction could falsify the re-added
// clauses. Returns nil when x was not eliminated or is already restored in
// this view.
func (v *View) Restore(x cnf.Var) []cnf.Clause {
	i, ok := v.index[x]
	if !ok || v.restored[i] {
		return nil
	}
	v.restored[i] = true
	return v.out.Elims[i].Clauses
}

// Extend completes a model of the simplified formula into a model of the
// original, exactly like Outcome.Extend but honoring this view's restored
// flags: variables the view restored keep the solver's value.
func (v *View) Extend(model []bool) []bool {
	return v.out.extend(model, v.restored)
}

// extend is the shared reconstruction walk: restored[i] marks the i-th
// elimination as reverted (nil = none are).
func (o *Outcome) extend(model []bool, restored []bool) []bool {
	out := make([]bool, len(model))
	copy(out, model)
	for i := len(o.Elims) - 1; i >= 0; i-- {
		if restored != nil && restored[i] {
			continue
		}
		e := o.Elims[i]
		// Default false; flip to true if some clause requires it.
		out[e.V] = false
		for _, c := range e.Clauses {
			if !cnf.Assignment(out).SatisfiesClause(c) {
				out[e.V] = true
				break
			}
		}
	}
	return out
}
