// Package drup owns the DRUP proof format: Log writes the clause
// addition/deletion traces the solver, the preprocessor and the cube
// stitcher emit, ParseProof reads them, and Check validates them. Every
// added clause must be derivable by reverse unit propagation (RUP):
// assuming all its literals false and unit-propagating over the current
// database must yield a conflict. A proof is accepted when the empty
// clause is derived.
//
// BerkMin predates proof logging; the checker exists so this
// reproduction's UNSAT answers are independently machine-checkable (the
// test suite validates proofs for every UNSAT family).
package drup

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"berkmin/internal/cnf"
)

// Step is one parsed proof line.
type Step struct {
	Delete bool
	Lits   []cnf.Lit
}

// ParseProof reads a DRUP trace: lines of whitespace-separated DIMACS
// literals terminated by 0, with an optional leading "d" marking deletions.
func ParseProof(r io.Reader) ([]Step, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var steps []Step
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		st := Step{}
		fields := strings.Fields(line)
		i := 0
		if fields[0] == "d" {
			st.Delete = true
			i = 1
		}
		closed := false
		for ; i < len(fields); i++ {
			x, err := strconv.Atoi(fields[i])
			if err != nil {
				return nil, fmt.Errorf("drup: line %d: bad literal %q", lineNo, fields[i])
			}
			if x == 0 {
				closed = true
				break
			}
			if !cnf.ValidDimacs(x) {
				return nil, fmt.Errorf("drup: line %d: literal %q out of range (variables go up to %d)", lineNo, fields[i], cnf.MaxDimacsVar)
			}
			st.Lits = append(st.Lits, cnf.FromDimacs(x))
		}
		if !closed {
			return nil, fmt.Errorf("drup: line %d: missing terminating 0", lineNo)
		}
		steps = append(steps, st)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return steps, nil
}

// checker is a simple occurrence-list unit propagator over an add/delete
// clause database.
type checker struct {
	nVars   int
	clauses []*ckClause
	byKey   map[string][]*ckClause
	occ     [][]*ckClause // per literal
	assign  []int8        // 0 undef, 1 true, -1 false
	trail   []cnf.Lit
}

type ckClause struct {
	lits    []cnf.Lit
	deleted bool
}

func key(lits []cnf.Lit) string {
	s := make([]int, len(lits))
	for i, l := range lits {
		s[i] = int(l)
	}
	sort.Ints(s)
	var b strings.Builder
	for _, x := range s {
		fmt.Fprintf(&b, "%d,", x)
	}
	return b.String()
}

func newChecker(f *cnf.Formula) *checker {
	c := &checker{
		nVars: f.NumVars,
		byKey: make(map[string][]*ckClause),
	}
	c.occ = make([][]*ckClause, 2*f.NumVars+2)
	c.assign = make([]int8, f.NumVars+1)
	for _, cl := range f.Clauses {
		c.add(append([]cnf.Lit(nil), cl...))
	}
	return c
}

func (c *checker) grow(v int) {
	for c.nVars < v {
		c.nVars++
		c.assign = append(c.assign, 0)
	}
	for len(c.occ) < 2*c.nVars+2 {
		c.occ = append(c.occ, nil)
	}
}

func (c *checker) add(lits []cnf.Lit) {
	// Normalize: duplicate literals would make unit detection miscount,
	// and tautologies can never propagate — drop them. (Input CNFs from
	// Tseitin encodings of degenerate gates do contain such clauses; the
	// solver normalizes on AddClause, so its deletion lines refer to the
	// deduplicated form, which also makes the deletion keys match.)
	norm, taut := cnf.Clause(lits).Normalize()
	if taut {
		return
	}
	lits = norm
	for _, l := range lits {
		c.grow(int(l.Var()))
	}
	cl := &ckClause{lits: lits}
	c.clauses = append(c.clauses, cl)
	k := key(lits)
	c.byKey[k] = append(c.byKey[k], cl)
	for _, l := range lits {
		c.occ[l] = append(c.occ[l], cl)
	}
}

// delete marks one live clause with these literals deleted; unknown
// deletions are tolerated (and counted by Check).
func (c *checker) delete(lits []cnf.Lit) bool {
	norm, taut := cnf.Clause(lits).Normalize()
	if taut {
		return true // tautologies were never added; deleting one is a no-op
	}
	lits = norm
	for _, cl := range c.byKey[key(lits)] {
		if !cl.deleted {
			cl.deleted = true
			return true
		}
	}
	return false
}

func (c *checker) val(l cnf.Lit) int8 {
	v := c.assign[l.Var()]
	if l.Neg() {
		return -v
	}
	return v
}

func (c *checker) set(l cnf.Lit) {
	if l.Neg() {
		c.assign[l.Var()] = -1
	} else {
		c.assign[l.Var()] = 1
	}
	c.trail = append(c.trail, l)
}

func (c *checker) unset() {
	for _, l := range c.trail {
		c.assign[l.Var()] = 0
	}
	c.trail = c.trail[:0]
}

// propagate runs unit propagation from the current assignment. It returns
// true if a conflict is reached.
func (c *checker) propagate() bool {
	head := 0
	// Seed: scan the whole database once for units/conflicts.
	for _, cl := range c.clauses {
		if cl.deleted {
			continue
		}
		switch u, n := c.status(cl); n {
		case 0:
			return true
		case 1:
			if c.val(u) == 0 {
				c.set(u)
			}
		}
	}
	for head < len(c.trail) {
		p := c.trail[head]
		head++
		for _, cl := range c.occ[p.Not()] {
			if cl.deleted {
				continue
			}
			switch u, n := c.status(cl); n {
			case 0:
				return true
			case 1:
				if c.val(u) == 0 {
					c.set(u)
				}
			}
		}
	}
	return false
}

// status returns (unit literal, count) where count is the number of
// non-false literals: 0 = conflict, 1 = unit (if not satisfied). A
// satisfied clause reports count -1.
func (c *checker) status(cl *ckClause) (cnf.Lit, int) {
	var unit cnf.Lit
	n := 0
	for _, l := range cl.lits {
		switch c.val(l) {
		case 1:
			return cnf.LitUndef, -1
		case 0:
			unit = l
			n++
			if n > 1 {
				return cnf.LitUndef, 2
			}
		}
	}
	return unit, n
}

// rup checks that the clause is derivable by reverse unit propagation.
func (c *checker) rup(lits []cnf.Lit) bool {
	defer c.unset()
	for _, l := range lits {
		switch c.val(l) {
		case 1:
			// A literal already true under UP of the database: the clause
			// is subsumed by propagation — accept.
			return true
		case 0:
			c.set(l.Not())
		}
	}
	return c.propagate()
}

// Result summarizes a proof check.
type Result struct {
	Steps            int
	Additions        int
	Deletions        int
	UnknownDeletions int
	EmptyDerived     bool
}

// Check validates the proof against the formula. It returns an error at
// the first RUP failure, or if the trace never derives the empty clause.
func Check(f *cnf.Formula, proof io.Reader) (Result, error) {
	steps, err := ParseProof(proof)
	if err != nil {
		return Result{}, err
	}
	c := newChecker(f)
	res := Result{Steps: len(steps)}
	for i, st := range steps {
		if st.Delete {
			res.Deletions++
			if !c.delete(st.Lits) {
				res.UnknownDeletions++
			}
			continue
		}
		res.Additions++
		if !c.rup(st.Lits) {
			return res, fmt.Errorf("drup: step %d: clause %v is not RUP", i+1, st.Lits)
		}
		if len(st.Lits) == 0 {
			res.EmptyDerived = true
			return res, nil
		}
		c.add(append([]cnf.Lit(nil), st.Lits...))
	}
	return res, fmt.Errorf("drup: proof ended without deriving the empty clause")
}
