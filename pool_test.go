package berkmin

import (
	"bytes"
	"testing"

	"berkmin/internal/cnf"
)

// poolFuzzLit decodes a byte into a signed DIMACS literal over 1..nv.
func poolFuzzLit(b byte, nv int) int {
	l := int(b&0x7F)%nv + 1
	if b&0x80 != 0 {
		l = -l
	}
	return l
}

// FuzzPoolRecycle drives one pool through a stream of temp-group queries
// and checks every answer of its recycled solvers against a fresh
// Snapshot.NewSolver given the same groups and assumptions: the verdicts
// agree, SAT models satisfy the base formula, the snapshot-held group, the
// live temp clauses and the assumptions, and every UNSAT core re-solves
// UNSAT on a fresh solver. The snapshot may be preprocessed (queries then
// restore eliminated variables) and holds a group of its own; temp clauses
// and assumptions may name fresh variables beyond the solver's. Every Put
// of a live solver must recycle: the pool drops only refuted solvers, and
// misses only on its first Get and after such a drop.
func FuzzPoolRecycle(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x83, 0x24, 0x35, 0x86, 0x17, 0x91, 0x02}, []byte{0x01, 0x13, 0x85, 0x22, 0x07, 0x02, 0x99, 0x31, 0x40, 0x05})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x84, 0x85, 0x86}, []byte{0x02, 0x81, 0x82, 0x0a, 0x0b, 0x01, 0x00, 0x8c, 0x03, 0x04, 0x05})
	f.Add([]byte{0x11}, []byte{0x02, 0x09, 0x89, 0x0a, 0x8a, 0x01, 0x01, 0x81})
	f.Fuzz(func(t *testing.T, baseData, ops []byte) {
		const nv = 8 // the base formula's variables
		if len(baseData) > 60 {
			baseData = baseData[:60]
		}
		base := NewFormula(nv)
		for i := 1; i+2 < len(baseData); i += 3 {
			base.Add(cnf.NewClause(poolFuzzLit(baseData[i], nv), poolFuzzLit(baseData[i+1], nv), poolFuzzLit(baseData[i+2], nv)))
		}
		master := New()
		if len(baseData) > 0 && baseData[0]&1 != 0 {
			so := DefaultSimplifyOptions()
			master.SetSimplify(&so)
		}
		master.AddFormula(base)
		held := master.NewClauseGroup()
		master.AddClauseGroup(held, -1, -2)
		sn := master.Snapshot()
		pool := sn.NewPool()

		dead := 0
		for q := 0; q < 8 && len(ops) >= 4; q++ {
			head, a0, a1 := ops[0], ops[1], ops[2]
			ops = ops[3:]
			s, ref := pool.Get(), sn.NewSolver()
			// Bytes beyond the base's variables name fresh variables past
			// both solvers' current counts, never an activation variable.
			// (A solver refuted in an earlier query and recycled by Reset
			// ignores clauses, so it may count fewer.)
			lit := func(b byte) int {
				l := poolFuzzLit(b, nv+2)
				if v := max(l, -l); v > nv {
					if s.NumVars() != ref.NumVars() && !s.core.Dead() {
						t.Fatalf("query %d: recycled solver has %d variables, fresh solver %d", q, s.NumVars(), ref.NumVars())
					}
					fresh := max(s.NumVars(), ref.NumVars()) + v - nv
					if l < 0 {
						return -fresh
					}
					return fresh
				}
				return l
			}
			raw := map[Group][][]int{}
			var temps []Group
			for g := 0; g < int(head&3) && len(ops) >= 2; g++ {
				gs, gr := s.NewClauseGroup(), ref.NewClauseGroup()
				if gs != gr {
					t.Fatalf("query %d: recycled solver minted group %v, fresh solver %v", q, gs, gr)
				}
				c := []int{lit(ops[0]), lit(ops[1])}
				ops = ops[2:]
				s.AddClauseGroup(gs, c...)
				ref.AddClauseGroup(gr, c...)
				raw[gs] = append(raw[gs], c)
				temps = append(temps, gs)
			}
			if len(temps) > 0 && head&4 != 0 {
				s.ReleaseGroup(temps[0])
				ref.ReleaseGroup(temps[0])
			}
			assumps := []int{lit(a0)}
			if a1 != 0 {
				assumps = append(assumps, lit(a1))
			}
			r, rr := s.SolveAssuming(assumps...), ref.SolveAssuming(assumps...)
			if r.Status != rr.Status {
				t.Fatalf("query %d: recycled solver %v, fresh solver %v", q, r.Status, rr.Status)
			}
			switch r.Status {
			case StatusSat:
				holds := func(l int) bool {
					v := l
					if v < 0 {
						v = -v
					}
					return v < len(r.Model) && r.Model[v] == (l > 0)
				}
				live := [][]int{{-1, -2}}
				for _, g := range temps {
					if !s.GroupReleased(g) {
						live = append(live, raw[g]...)
					}
				}
				for _, a := range assumps {
					live = append(live, []int{a})
				}
				if !Verify(base, r.Model) {
					t.Fatalf("query %d: model violates the base formula", q)
				}
				for _, c := range live {
					if !holds(c[0]) && (len(c) < 2 || !holds(c[1])) {
						t.Fatalf("query %d: model violates %v", q, c)
					}
				}
			case StatusUnsat:
				groups, lits := s.UnsatCore()
				chk := sn.NewSolver()
				for _, g := range groups {
					for _, c := range raw[g] { // the held group is already in chk
						chk.AddClause(c...)
					}
				}
				if st := chk.SolveAssuming(lits...).Status; st != StatusUnsat {
					t.Fatalf("query %d: core (groups %v, literals %v) re-solves %v", q, groups, lits, st)
				}
			}
			if s.core.Dead() {
				// A refuted solver answers UNSAT whatever it holds, and one
				// that minted groups or variables is dropped, not trimmed.
				dead++
				pool.Put(s)
				continue
			}
			pool.Put(s)
			if s.NumVars() != sn.NumVars() {
				t.Fatalf("query %d: recycled solver has %d variables, the snapshot %d", q, s.NumVars(), sn.NumVars())
			}
		}
		if st := pool.Stats(); st.Dropped > uint64(dead) || st.Misses > 1+uint64(dead) {
			t.Fatalf("pool stats %+v after %d refuted solvers: a live temp-group solver was not recycled", st, dead)
		}
	})
}

// TestPoolDropsDiverged: Put recycles a solver whose only change is temp
// groups, and drops one whose formula diverged any other way — a proof
// writer, a clause added to or a release of the snapshot-held group, or a
// clone of a pooled solver carrying its temp group.
func TestPoolDropsDiverged(t *testing.T) {
	master := New()
	master.AddClause(1, 2)
	master.AddClause(-1, 3)
	held := master.NewClauseGroup()
	master.AddClauseGroup(held, -2, -3)
	pool := master.Snapshot().NewPool()

	w := pool.Get()
	g := w.NewClauseGroup()
	w.AddClauseGroup(g, -1)
	if r := w.Solve(); r.Status != StatusSat {
		t.Fatalf("temp-group query: %v", r.Status)
	}
	pool.Put(w)
	if st := pool.Stats(); st.Dropped != 0 || st.Idle != 1 {
		t.Fatalf("temp-group solver not recycled: %+v", st)
	}

	diverge := map[string]func(s *Solver) *Solver{
		"proof writer": func(s *Solver) *Solver { s.SetProofWriter(&bytes.Buffer{}); return s },
		"held clause":  func(s *Solver) *Solver { s.AddClauseGroup(held, 1); return s },
		"held release": func(s *Solver) *Solver { s.ReleaseGroup(held); return s },
		"clone":        func(s *Solver) *Solver { s.AddClauseGroup(s.NewClauseGroup(), 3); return s.Clone() },
	}
	for name, change := range diverge {
		before := pool.Stats().Dropped
		s := change(pool.Get())
		s.Solve()
		pool.Put(s)
		if pool.Stats().Dropped != before+1 {
			t.Errorf("%s: the pool recycled a diverged solver", name)
		}
	}
}
