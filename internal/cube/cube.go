// Package cube implements cube-and-conquer parallel SAT solving: a
// lookahead-style cuber recursively picks splitting variables and
// partitions the search space into many small "cubes" (partial
// assignments), and a work-stealing pool of CDCL workers then conquers
// the cubes independently, each solving the formula under its cube as
// assumptions. Any satisfiable cube decides the instance; when every
// cube is refuted the instance is UNSAT, and the per-cube DRUP traces
// are stitched behind the split tree into one checkable refutation of
// the original formula (see proof.go).
//
// The split/conquer phase split is the classic cube-and-conquer recipe
// (Heule et al.): lookahead heuristics are strong global planners but
// poor finishers, CDCL the reverse, so the cuber spends its effort where
// branching matters most and hands the leaves to cheap, clause-learning
// workers. Everything here is an extension beyond the BerkMin paper,
// built on the substrate the repo already has — cheap Clone, assumption
// solving with failed-assumption extraction, and the clause-sharing
// hub of package conc.
package cube

import (
	"sort"
	"time"

	"berkmin/internal/cnf"
	"berkmin/internal/conc"
	"berkmin/internal/core"
)

// CubesPerWorker sizes the default cube budget: the cuber aims at
// CubesPerWorker open cubes per conquer worker. A few cubes each are
// enough for work stealing to even out uneven cubes, while every further
// cube costs probes and a search that repeats much of its neighbours'
// work (pigeonhole 8 on 2 workers: 240 cubes take 2.6 times the
// conflicts of 16). On perfbench's hard subset, seeds 1–20, 2, 4, 8 and
// 16 cubes per worker read within a few percent of each other, 4 the
// lowest. The split budget halves at each level, so no cube is longer
// than ⌈log2 MaxCubes⌉ literals.
const CubesPerWorker = 4

// probes is how many candidate variables are probed per split node.
const probes = 16

// fillNum/fillDen: stop splitting once fillNum/fillDen of the variables
// are already assigned under the cube — the remaining subproblem is small
// enough that CDCL finishes it faster than further lookahead pays for.
const (
	fillNum = 9
	fillDen = 10
)

// node is one vertex of the split tree. The tree is kept (not just the
// leaf cubes) because the all-UNSAT proof walks it in post-order: each
// leaf's negated cube is a RUP consequence of the worker traces, and each
// internal node's negated cube follows from its two children.
type node struct {
	// lit is the literal asserted on the edge from the parent (0 at the
	// root — variable numbering starts at 1, so literal 0 is never real).
	lit         cnf.Lit
	left, right *node
	// refuted marks a leaf the cuber itself closed: asserting the cube
	// made unit propagation conflict, so no worker ever sees it.
	refuted bool
	// leaf indexes the open cube in the cubes slice, -1 for internal and
	// refuted nodes.
	leaf int
}

// cuber carries the state of one splitting run. It probes on a scratch
// clone that has never solved — its database holds exactly the problem
// clauses, which is what makes refuted leaves directly RUP against the
// formula (see proof.go).
type cuber struct {
	s        *core.Solver
	nVars    int
	occ      []int32 // static per-literal occurrence counts
	maxCubes int
	cancel   func() bool
	path     []cnf.Lit // cube literals along the current DFS path
	cubes    [][]cnf.Lit
	refuted  int
	scratch  []cand
}

type cand struct {
	v    cnf.Var
	stat int64
}

func newCuber(s *core.Solver, opt Options, cancel func() bool) *cuber {
	return &cuber{
		s:        s,
		nVars:    s.NumVars(),
		occ:      s.LitOccurrences(),
		maxCubes: opt.MaxCubes,
		cancel:   cancel,
	}
}

// build runs the recursive split and returns the tree root. The solver's
// trail is restored to level 0 afterwards.
func (c *cuber) build() *node {
	root := c.split(c.maxCubes)
	c.s.ProbeRetract(0)
	return root
}

// split decides whether the current node (whose cube is already asserted
// on the trail) becomes a leaf or splits further. budget is the number of
// open leaves this subtree may still produce; halving it per child keeps
// the tree balanced near maxCubes leaves without global coordination, and
// bounds its depth by ⌈log2 maxCubes⌉.
func (c *cuber) split(budget int) *node {
	if budget <= 1 || (c.cancel != nil && c.cancel()) {
		return c.openLeaf()
	}
	if c.s.TrailLen()*fillDen >= c.nVars*fillNum {
		return c.openLeaf()
	}
	v := c.pickVar()
	if v == 0 {
		return c.openLeaf()
	}
	lb := budget / 2
	left := c.child(cnf.PosLit(v), lb)
	right := c.child(cnf.NegLit(v), budget-lb)
	return &node{left: left, right: right, leaf: -1}
}

// child asserts l as one more cube literal, recurses, and retracts. A
// conflict during the assert closes the child as a refuted leaf: unit
// propagation alone falsifies this cube, so it needs no conquering and
// its negation is RUP against the problem clauses.
func (c *cuber) child(l cnf.Lit, budget int) *node {
	lvl := c.s.ProbeLevel()
	c.path = append(c.path, l)
	_, conflict := c.s.ProbeAssume(l)
	var n *node
	if conflict {
		c.refuted++
		n = &node{refuted: true, leaf: -1}
	} else {
		n = c.split(budget)
	}
	n.lit = l
	c.s.ProbeRetract(lvl)
	c.path = c.path[:len(c.path)-1]
	return n
}

func (c *cuber) openLeaf() *node {
	c.cubes = append(c.cubes, append([]cnf.Lit(nil), c.path...))
	return &node{leaf: len(c.cubes) - 1}
}

// pickVar chooses the splitting variable for the current node: rank the
// unassigned variables by a static occurrence product, probe the top few
// in both polarities, and take the one whose two propagation cascades
// have the largest product (march-style mixed lookahead: the product
// favors variables that reduce the formula a lot in *both* branches, the
// sum breaks ties). A probe that conflicts is a failed literal — the
// strongest possible outcome, since that branch becomes a free refuted
// leaf — so failed candidates outrank every live one. Returns 0 when no
// unassigned variable remains.
func (c *cuber) pickVar() cnf.Var {
	cands := c.scratch[:0]
	for v := cnf.Var(1); int(v) <= c.nVars; v++ {
		if c.s.Assigned(v) {
			continue
		}
		p := int64(c.occ[cnf.PosLit(v)])
		n := int64(c.occ[cnf.NegLit(v)])
		cands = append(cands, cand{v, (p + 1) * (n + 1)})
	}
	c.scratch = cands
	if len(cands) == 0 {
		return 0
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].stat > cands[j].stat })
	if len(cands) > probes {
		cands = cands[:probes]
	}

	lvl := c.s.ProbeLevel()
	var best cnf.Var
	bestScore := int64(-1)
	for _, cd := range cands {
		ip, cp := c.s.ProbeAssume(cnf.PosLit(cd.v))
		c.s.ProbeRetract(lvl)
		in, cn := c.s.ProbeAssume(cnf.NegLit(cd.v))
		c.s.ProbeRetract(lvl)
		var score int64
		switch {
		case cp && cn:
			// Both polarities fail: splitting here refutes the whole
			// node by propagation alone. Nothing can beat that.
			return cd.v
		case cp || cn:
			// Failed literal: one child is free. Rank by the live
			// side's cascade so stronger failed literals win.
			score = int64(c.nVars+1)*int64(c.nVars+1) + int64(ip+in)
		default:
			score = int64(ip)*int64(in)*1024 + int64(ip) + int64(in)
		}
		if score > bestScore {
			bestScore = score
			best = cd.v
		}
	}
	return best
}

// Split runs only the cubing phase and returns the open cubes, for tests
// and tooling that want to inspect a partition without conquering it.
func Split(f *cnf.Formula, opt Options) [][]cnf.Lit {
	opt = opt.withDefaults()
	s := core.New(opt.Conquer)
	s.AddFormula(f)
	if s.Dead() {
		return nil
	}
	c := newCuber(s, opt, nil)
	c.build()
	return c.cubes
}

// withDefaults resolves the zero values documented on Options.
func (opt Options) withDefaults() Options {
	if opt.MaxCubes <= 0 {
		opt.MaxCubes = conc.Jobs(opt.Jobs) * CubesPerWorker
	}
	if opt.Conquer == (core.Options{}) {
		opt.Conquer = core.DefaultOptions()
	}
	if opt.BaseSeed == 0 {
		opt.BaseSeed = 1
	}
	return opt
}

// deadlineCancel returns a cancel predicate for the cubing phase: fire on
// the context (via interruption of the scratch solver is not needed —
// the cuber polls) or when the deadline passes. A nil return means the
// cuber runs unbounded.
func deadlineCancel(done <-chan struct{}, deadline time.Time) func() bool {
	if done == nil && deadline.IsZero() {
		return nil
	}
	return func() bool {
		if done != nil {
			select {
			case <-done:
				return true
			default:
			}
		}
		return !deadline.IsZero() && time.Now().After(deadline)
	}
}
