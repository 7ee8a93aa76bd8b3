// Package simplify is a CNF preprocessor: unit propagation, tautology and
// duplicate removal, subsumption, self-subsuming resolution
// (strengthening) and bounded variable elimination, with model
// reconstruction for eliminated variables.
//
// BerkMin itself simplifies its database under retained level-0
// assignments at every restart (§8); this package extends that idea to a
// standalone SatELite-style preprocessor — a post-BerkMin technique — so
// generated benchmark CNFs can be solved in either raw or preprocessed
// form. Solving the simplified formula plus Outcome.Extend reconstructs a
// model of the original.
package simplify

import (
	"io"
	"slices"
	"sort"
	"time"

	"berkmin/internal/cnf"
	"berkmin/internal/drup"
)

// Options configures what preprocessing reports besides its outcome. The
// passes and their bounds are fixed (maxRounds, maxSubsumeOcc,
// maxOccurrences); Run's budget and stop hook are the only way to cut
// preprocessing short.
type Options struct {
	// Proof, when non-nil, receives a DRUP trace of every simplification
	// step: derived units, strengthened clauses and resolvents as
	// additions; subsumed, strengthened and satisfied clauses as
	// deletions. Every addition is a unit consequence or a resolvent of
	// live clauses, so the trace — followed by a solver's proof for the
	// simplified formula — verifies against the ORIGINAL formula with
	// package drup. Two deliberate asymmetries keep that guarantee under
	// variable elimination: pure literals are handled as clause removals
	// (never fixed as units, which would not be RUP), and
	// eliminated-variable clauses get no deletion lines at all, so that
	// View.Restore can hand them back to the solver under incremental use
	// without the checker having forgotten them.
	Proof io.Writer
}

// DefaultOptions returns the zero Options: no proof trace.
func DefaultOptions() Options { return Options{} }

// Elim records one eliminated variable and the original clauses it
// occurred in, for model reconstruction.
type Elim struct {
	V       cnf.Var
	Clauses []cnf.Clause
}

// Outcome is the preprocessing result.
type Outcome struct {
	// Formula is the simplified CNF (over the same variable numbering;
	// eliminated variables simply no longer occur).
	Formula *cnf.Formula
	// Unsat is true when preprocessing alone refuted the formula.
	Unsat bool
	// Elims holds eliminated variables in elimination order.
	Elims []Elim

	// statistics
	RemovedTautologies int
	RemovedSubsumed    int
	StrengthenedLits   int
	EliminatedVars     int
	PropagatedUnits    int
}

type workClause struct {
	lits    []cnf.Lit
	sig     uint64 // literal-occurrence signature for fast subsumption tests
	deleted bool
}

type simplifier struct {
	nVars   int
	clauses []*workClause
	occ     [][]*workClause // per literal
	assign  []int8          // 0 undef, 1 true, -1 false
	queue   []cnf.Lit
	out     *Outcome
	// proof logs the optional DRUP trace (Options.Proof). Every added
	// clause is RUP against the current database: a unit reached by
	// propagation, or a resolvent of two live clauses (assuming a
	// resolvent false unit-propagates one parent into the pivot and the
	// other into a conflict). Deletions always name a clause's physical
	// (stored) form — the form the checker's database holds.
	proof *drup.Log

	// contradiction is set when strengthening derives the empty clause
	// (resolving two contradictory unit clauses); the fixpoint loop stops
	// and reports UNSAT.
	contradiction bool

	// Budget state (Run): aborted is set once the deadline passes or the
	// stop hook fires; polls rate-limits the checks.
	deadline time.Time
	stop     func() bool
	aborted  bool
	polls    uint

	// Elimination scratch, reused across candidates: the live occurrences
	// of v then ¬v, their current literals (nil when satisfied) carved
	// from one flat buffer, and per-literal marks for counting resolvents.
	occBuf []*workClause
	cur    []cnf.Clause
	litBuf []cnf.Lit
	mark   []bool
}

// outOfBudget polls the deadline and stop hook on its first call and on
// every 2048th after it. Once either fires, every pass winds down at its
// next boundary and the current state is emitted as-is.
func (s *simplifier) outOfBudget() bool {
	if s.aborted {
		return true
	}
	if s.polls++; s.polls&0x7FF != 1 {
		return false
	}
	s.aborted = s.stop != nil && s.stop() || !s.deadline.IsZero() && time.Now().After(s.deadline)
	return s.aborted
}

// Run preprocesses f under an end-to-end wall-clock budget and a stop hook
// — the one way to bound preprocessing, shared by its callers, the
// front-end berkmin.Solver and portfolio.SolveContext. When budget > 0,
// preprocessing stops once it has run that long, and the remaining budget
// is returned with the elapsed time deducted, clamped to 1ms so the
// follow-on search still times out promptly rather than running
// unbounded. A budget of 0 means unlimited and is returned unchanged.
// stop, when non-nil, is polled alongside the clock (the solver front end
// wires it to Interrupt).
//
// A stopped run is cut short, never corrupted: the outcome is
// equisatisfiable and fully usable. A stop seen before the first pass
// returns the input untouched, with nothing written to opt.Proof.
func Run(f *cnf.Formula, opt Options, budget time.Duration, stop func() bool) (o *Outcome, elapsed, remaining time.Duration) {
	start := time.Now()
	s := &simplifier{
		nVars:  f.NumVars,
		occ:    make([][]*workClause, 2*f.NumVars+2),
		mark:   make([]bool, 2*f.NumVars+2),
		assign: make([]int8, f.NumVars+1),
		out:    &Outcome{},
		proof:  drup.NewLog(opt.Proof),
		stop:   stop,
	}
	if budget > 0 {
		s.deadline = start.Add(budget)
	}
	o = s.run(f)
	elapsed = time.Since(start)
	remaining = budget
	if budget > 0 {
		if remaining = budget - elapsed; remaining < time.Millisecond {
			remaining = time.Millisecond
		}
	}
	return o, elapsed, remaining
}

// Simplify preprocesses the formula without a budget. The input is not
// modified.
func Simplify(f *cnf.Formula, opt Options) *Outcome {
	o, _, _ := Run(f, opt, 0, nil)
	return o
}

// maxRounds bounds the simplification fixpoint loop.
const maxRounds = 5

func (s *simplifier) run(f *cnf.Formula) *Outcome {
	for _, c := range f.Clauses {
		if s.outOfBudget() {
			return untouched(f)
		}
		norm, taut := c.Clone().Normalize()
		if taut {
			s.out.RemovedTautologies++
			continue
		}
		if len(norm) == 0 {
			return s.finishUnsat(f.NumVars)
		}
		if len(norm) == 1 {
			s.queue = append(s.queue, norm[0])
			continue
		}
		s.addClause(norm)
	}
	// The last poll before anything reaches the trace. The initial
	// propagation then runs to completion: it is linear in the formula
	// and far cheaper than loading, and a stop inside it could return
	// neither the untouched input (its unit lines are already logged) nor
	// the partial state (input units still queued are in no clause).
	if s.outOfBudget() {
		return untouched(f)
	}
	if !s.propagate() {
		return s.finishUnsat(f.NumVars)
	}
	for round := 0; round < maxRounds && !s.aborted; round++ {
		changed := s.subsumptionPass()
		if s.contradiction || !s.propagate() {
			return s.finishUnsat(f.NumVars)
		}
		changed = s.eliminationPass() || changed
		if s.contradiction || !s.propagate() {
			return s.finishUnsat(f.NumVars)
		}
		if !changed {
			break
		}
	}
	// Emit the simplified formula.
	out := cnf.New(f.NumVars)
	for _, c := range s.clauses {
		if c.deleted {
			continue
		}
		kept := s.currentLits(c)
		if kept == nil {
			// Satisfied by a fixed assignment whose unit is already in the
			// trace, so the deletion is safe for the checker.
			s.proof.Delete(c.lits)
			continue
		}
		out.Add(kept)
	}
	for v := cnf.Var(1); int(v) <= f.NumVars; v++ {
		switch s.assign[v] {
		case 1:
			out.Add(cnf.Clause{cnf.PosLit(v)})
		case -1:
			out.Add(cnf.Clause{cnf.NegLit(v)})
		}
	}
	s.out.Formula = out
	return s.out
}

// untouched is the outcome of a run stopped before its first pass: the
// input's clauses as they are, with no statistics and no eliminations.
func untouched(f *cnf.Formula) *Outcome {
	return &Outcome{Formula: &cnf.Formula{NumVars: f.NumVars, Clauses: slices.Clone(f.Clauses)}}
}

func (s *simplifier) finishUnsat(nVars int) *Outcome {
	s.out.Unsat = true
	s.out.Formula = cnf.New(nVars)
	s.out.Formula.Add(cnf.Clause{})
	// The conflict was reached by unit propagation over the database plus
	// the units already in the trace, so the empty clause is RUP and the
	// trace is a complete refutation on its own.
	s.proof.Add(nil)
	return s.out
}

func (s *simplifier) addClause(lits []cnf.Lit) *workClause {
	c := &workClause{lits: lits, sig: cnf.Clause(lits).Signature()}
	s.clauses = append(s.clauses, c)
	for _, l := range lits {
		s.occ[l] = append(s.occ[l], c)
	}
	return c
}

func (s *simplifier) val(l cnf.Lit) int8 {
	v := s.assign[l.Var()]
	if l.Neg() {
		return -v
	}
	return v
}

// currentLits returns the clause's literals under the current fixed
// assignment, or nil when satisfied.
func (s *simplifier) currentLits(c *workClause) cnf.Clause {
	out, sat := s.appendCurrent(make(cnf.Clause, 0, len(c.lits)), c)
	if sat {
		return nil
	}
	return out
}

// appendCurrent appends the clause's unassigned literals to buf; when a
// literal is true it reports satisfied and returns buf unchanged.
func (s *simplifier) appendCurrent(buf []cnf.Lit, c *workClause) (out []cnf.Lit, satisfied bool) {
	n := len(buf)
	for _, l := range c.lits {
		switch s.val(l) {
		case 1:
			return buf[:n], true
		case 0:
			buf = append(buf, l)
		}
	}
	return buf, false
}

// propagate fixes queued units to a fixpoint; false on conflict.
func (s *simplifier) propagate() bool {
	for len(s.queue) > 0 {
		l := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		switch s.val(l) {
		case 1:
			continue
		case -1:
			return false
		}
		if l.Neg() {
			s.assign[l.Var()] = -1
		} else {
			s.assign[l.Var()] = 1
		}
		s.out.PropagatedUnits++
		// Every fixed literal enters the trace as a unit. Each is RUP when
		// logged: it was queued from an input unit, a clause made unit by
		// previously-logged units, a strengthened clause already in the
		// trace, or an elimination resolvent already in the trace.
		s.proof.Add([]cnf.Lit{l})
		// Clauses containing ¬l may become unit.
		for _, c := range s.occ[l.Not()] {
			if c.deleted {
				continue
			}
			lits := s.currentLits(c)
			if lits == nil {
				continue
			}
			switch len(lits) {
			case 0:
				return false
			case 1:
				s.queue = append(s.queue, lits[0])
			}
		}
	}
	return true
}

// maxSubsumeOcc bounds the occurrence-list length scanned per candidate
// during subsumption and strengthening, keeping a pass near-linear even
// when huge formulas share literals across most clauses.
const maxSubsumeOcc = 1000

// subsumptionPass removes subsumed clauses and applies self-subsuming
// resolution. Returns whether anything changed.
func (s *simplifier) subsumptionPass() bool {
	changed := false
	// Sort by length so short (strong) clauses subsume first.
	order := make([]*workClause, 0, len(s.clauses))
	for _, c := range s.clauses {
		if !c.deleted {
			order = append(order, c)
		}
	}
	sort.Slice(order, func(i, j int) bool { return len(order[i].lits) < len(order[j].lits) })
	for _, c := range order {
		if c.deleted {
			continue
		}
		if s.outOfBudget() {
			return changed
		}
		// Find the literal with the fewest occurrences to scan candidates.
		best := c.lits[0]
		for _, l := range c.lits[1:] {
			if len(s.occ[l]) < len(s.occ[best]) {
				best = l
			}
		}
		if len(s.occ[best]) <= maxSubsumeOcc {
			for _, d := range s.occ[best] {
				if d == c || d.deleted || len(d.lits) < len(c.lits) {
					continue
				}
				if c.sig&^d.sig != 0 {
					continue // fast reject
				}
				if cnf.Clause(d.lits).ContainsAll(c.lits) {
					d.deleted = true
					s.proof.Delete(d.lits)
					s.out.RemovedSubsumed++
					changed = true
				}
			}
		}
		// Self-subsuming resolution: c = (l ∨ A); any d ⊇ A ∪ {¬l} can
		// drop ¬l.
		for _, l := range c.lits {
			neg := l.Not()
			if len(s.occ[neg]) > maxSubsumeOcc {
				continue
			}
			negSig := c.sig &^ (1 << (uint(l) % 64))
			negSig |= 1 << (uint(neg) % 64)
			for _, d := range s.occ[neg] {
				if d.deleted || len(d.lits) < len(c.lits) {
					continue
				}
				if negSig&^d.sig != 0 {
					continue
				}
				if cnf.SubsumesExcept(c.lits, d.lits, l, neg) {
					old := s.proof.Snapshot(d.lits)
					s.strengthen(d, neg)
					// The strengthened clause is the resolvent of c and the
					// old d: add it (RUP while old d is live), then retire
					// the old form.
					s.proof.Edit(d.lits, old)
					s.out.StrengthenedLits++
					changed = true
					switch len(d.lits) {
					case 0:
						// c and d were the contradictory units (x) and
						// (¬x): the resolvent just logged is the empty
						// clause — the formula is refuted.
						d.deleted = true
						s.contradiction = true
						return true
					case 1:
						s.queue = append(s.queue, d.lits[0])
					}
				}
			}
		}
	}
	return changed
}

// strengthen removes the literal from the clause (occurrence lists keep a
// stale entry; deleted/changed clauses are re-checked via signatures).
func (s *simplifier) strengthen(c *workClause, l cnf.Lit) {
	out := c.lits[:0]
	for _, x := range c.lits {
		if x != l {
			out = append(out, x)
		}
	}
	c.lits = out
	c.sig = cnf.Clause(out).Signature()
}

// maxOccurrences skips the elimination of variables with more live
// occurrences than this (cost control; pure literals are exempt).
const maxOccurrences = 16

// eliminationPass applies bounded variable elimination: a variable goes
// when its non-tautological resolvents number no more than its
// occurrences, so elimination never grows the clause count. Returns
// whether anything changed.
func (s *simplifier) eliminationPass() bool {
	changed := false
	for v := cnf.Var(1); int(v) <= s.nVars; v++ {
		if s.outOfBudget() {
			return changed
		}
		// Drain pending units first: a unit resolvent queued by an earlier
		// elimination in this same pass may constrain v (resolving (x v)
		// with (¬x v) yields the unit (v)). Eliminating a variable the
		// queue is about to fix would leave it both eliminated and
		// constrained, and Extend would overwrite its forced value —
		// producing a non-model of the original formula.
		if len(s.queue) > 0 && !s.propagate() {
			s.contradiction = true
			return true
		}
		if s.assign[v] != 0 {
			continue
		}
		s.occBuf = s.appendLiveOcc(s.occBuf[:0], cnf.PosLit(v))
		nPos := len(s.occBuf)
		s.occBuf = s.appendLiveOcc(s.occBuf, cnf.NegLit(v))
		pure := nPos == 0 || nPos == len(s.occBuf)
		if len(s.occBuf) == 0 || !pure && len(s.occBuf) > maxOccurrences {
			continue
		}
		cur := s.currentOcc()
		if pure {
			// Pure literal: a degenerate variable elimination with zero
			// resolvents. Dropping every clause containing the literal and
			// letting Extend pick the satisfying value keeps the proof pure
			// DRUP (fixing the literal as a unit would not be RUP — a pure
			// literal is satisfiability-preserving, not implied).
			s.eliminate(v, cur)
			changed = true
			continue
		}
		curPos, curNeg := cur[:nPos], cur[nPos:]
		// Outcomes that precede the bound, met in the p-major pair order
		// the resolvents are built in: a side satisfied under the fixed
		// assignment postpones v, and the units {v} × {¬v} resolve to the
		// empty clause. The contradiction is queued; the caller's
		// propagation turns it into the UNSAT outcome.
		postpone := false
	scan:
		for _, p := range curPos {
			for _, n := range curNeg {
				if p == nil || n == nil {
					postpone = true
					break scan
				}
				if len(p) == 1 && len(n) == 1 {
					s.queue = append(s.queue, cnf.PosLit(v), cnf.NegLit(v))
					return true
				}
			}
		}
		if postpone || !s.resolventsWithin(curPos, curNeg, v, len(s.occBuf)) {
			continue
		}
		var resolvents []cnf.Clause
		for _, p := range curPos {
			for _, n := range curNeg {
				if r, taut := resolve(p, n, v); !taut {
					resolvents = append(resolvents, r)
				}
			}
		}
		// Log every resolvent BEFORE the parent clauses leave the
		// database: each is RUP only while its parents are live.
		for _, r := range resolvents {
			s.proof.Add(r)
		}
		s.eliminate(v, cur)
		for _, r := range resolvents {
			if len(r) == 1 {
				s.queue = append(s.queue, r[0])
				continue
			}
			s.addClause(r)
		}
		changed = true
	}
	return changed
}

// eliminate records the occurrences in occBuf (cur holds their current
// literals) for model reconstruction and removes them. No deletion lines:
// View.Restore may re-add these clauses to the solver under incremental use,
// and a clause a checker retains can never break a later RUP step.
func (s *simplifier) eliminate(v cnf.Var, cur []cnf.Clause) {
	elim := Elim{V: v}
	for i, c := range s.occBuf {
		if cur[i] != nil {
			elim.Clauses = append(elim.Clauses, slices.Clone(cur[i]))
		}
		c.deleted = true
	}
	s.out.Elims = append(s.out.Elims, elim)
	s.out.EliminatedVars++
}

// appendLiveOcc appends the live clauses that still contain l to buf
// (strengthening may have removed l; occurrence lists are lazy).
func (s *simplifier) appendLiveOcc(buf []*workClause, l cnf.Lit) []*workClause {
	for _, c := range s.occ[l] {
		if !c.deleted && slices.Contains(c.lits, l) {
			buf = append(buf, c)
		}
	}
	return buf
}

// currentOcc computes the current literals of every clause in occBuf once,
// into the scratch buffers; a satisfied clause gets nil. The flat buffer
// is grown once up front, so the appends below never reallocate it.
func (s *simplifier) currentOcc() []cnf.Clause {
	n := 0
	for _, c := range s.occBuf {
		n += len(c.lits)
	}
	buf := slices.Grow(s.litBuf[:0], n)
	s.cur = s.cur[:0]
	for _, c := range s.occBuf {
		start := len(buf)
		var sat bool
		if buf, sat = s.appendCurrent(buf, c); sat {
			s.cur = append(s.cur, nil)
		} else {
			s.cur = append(s.cur, buf[start:len(buf):len(buf)])
		}
	}
	s.litBuf = buf
	return s.cur
}

// resolventsWithin reports whether pos × neg has at most limit
// non-tautological resolvents on v, without building them: each positive
// clause's literals other than v are marked, and a resolvent is
// tautological when a negative clause holds the complement of a mark.
// Counting stops once the limit is passed. Both sides must be
// unsatisfied current clauses.
func (s *simplifier) resolventsWithin(pos, neg []cnf.Clause, v cnf.Var, limit int) bool {
	count := 0
	for _, p := range pos {
		for _, l := range p {
			s.mark[l] = l.Var() != v
		}
		for _, n := range neg {
			taut := false
			for _, l := range n {
				if s.mark[l.Not()] {
					taut = true
					break
				}
			}
			if !taut {
				count++
			}
		}
		for _, l := range p {
			s.mark[l] = false
		}
		if count > limit {
			return false
		}
	}
	return true
}

// resolve computes the resolvent of a and b on v, or reports that it is
// tautological.
func resolve(a, b cnf.Clause, v cnf.Var) (cnf.Clause, bool) {
	out := make(cnf.Clause, 0, len(a)+len(b)-2)
	for _, l := range a {
		if l.Var() != v {
			out = append(out, l)
		}
	}
	for _, l := range b {
		if l.Var() != v {
			out = append(out, l)
		}
	}
	return out.Normalize()
}

// Extend completes a model of the simplified formula into a model of the
// original: eliminated variables are assigned, in reverse elimination
// order, the value that satisfies all their original clauses. A solver
// that restored eliminations extends through its View instead.
func (o *Outcome) Extend(model []bool) []bool {
	return o.extend(model, nil)
}
