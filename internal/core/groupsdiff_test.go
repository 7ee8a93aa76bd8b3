package core

import (
	"bytes"
	"testing"

	"math/rand"

	"berkmin/internal/cnf"
	"berkmin/internal/drup"
)

// groupFuzzLit decodes a nibble into a literal over variables 1..6.
func groupFuzzLit(n byte) cnf.Lit {
	return cnf.MkLit(cnf.Var(int(n&7)%6+1), n&8 != 0)
}

// groupFuzzClause decodes a byte into a 1- or 2-literal clause.
func groupFuzzClause(b byte) cnf.Clause {
	c := cnf.Clause{groupFuzzLit(b & 0x0F)}
	if b>>4 != 0 {
		c = append(c, groupFuzzLit(b>>4))
	}
	return c
}

// FuzzGroupsDifferential drives one incremental solver through an
// arbitrary stream of group operations (mint / add clause / release) and
// queries, checking every answer three ways against first principles:
//
//   - VERDICT: a fresh reference solver over the base formula plus the raw
//     clauses of the live groups must agree on SAT/UNSAT.
//   - MODEL: a SAT model must satisfy the base and every live group clause.
//   - CORE: the UnsatCore (group + failed-assumption form, with shrink
//     enabled) must re-solve to UNSAT on its own.
//
// At the end, if the stream refuted the formula outright, the accumulated
// DRUP trace must verify against the extended formula (group clauses with
// activation literals, release units as axioms).
func FuzzGroupsDifferential(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x40, 0x23, 0x05, 0x60}, []byte{0x00, 0x35, 0x01, 0x17, 0x03, 0x22, 0x02, 0x00, 0x03, 0x42})
	f.Add([]byte{0x01, 0x40, 0x11, 0x40}, []byte{0x00, 0x11, 0x01, 0x09, 0x03, 0x00, 0x01, 0x57, 0x03, 0x99, 0x02, 0x00, 0x03, 0x00})
	f.Add([]byte{}, []byte{0x00, 0xff, 0x01, 0x88, 0x03, 0x12, 0x03, 0x00})
	f.Fuzz(func(t *testing.T, baseData, ops []byte) {
		if len(baseData) > 48 {
			baseData = baseData[:48]
		}
		if len(ops) > 32 {
			ops = ops[:32]
		}
		base := cnf.New(6)
		var cur cnf.Clause
		for _, b := range baseData {
			cur = append(cur, groupFuzzLit(b&0x0F))
			if b&0x60 != 0 {
				base.Add(cur)
				cur = nil
			}
		}
		if len(cur) > 0 {
			base.Add(cur)
		}

		opt := IncrementalOptions()
		s := New(opt)
		var proof bytes.Buffer
		s.SetProofWriter(&proof)
		s.SetShrinkBudget(64)
		s.AddFormula(base)

		ext := cnf.New(base.NumVars) // the DRUP verification formula
		for _, c := range base.Clauses {
			ext.Add(c.Clone())
		}
		raw := map[GroupID][]cnf.Clause{}
		var order []GroupID

		queries := 0
		for i := 0; i+1 < len(ops) && queries < 8; i += 2 {
			a, b := ops[i], ops[i+1]
			switch a & 3 {
			case 0: // mint a group
				if len(order) < 4 {
					g := s.NewGroup()
					raw[g] = nil
					order = append(order, g)
				}
			case 1: // add a clause to some group
				if len(order) == 0 {
					continue
				}
				g := order[int(a>>2)%len(order)]
				c := groupFuzzClause(b)
				raw[g] = append(raw[g], c)
				ext.Add(append(c.Clone(), s.GroupLit(g).Not()))
				addGroupClause(s, g, c)
			case 2: // release some group
				if len(order) == 0 {
					continue
				}
				g := order[int(a>>2)%len(order)]
				if s.ReleaseGroup(g) {
					ext.Add(cnf.Clause{s.GroupLit(g).Not()})
				}
			case 3: // query
				var assumps []cnf.Lit
				if b != 0 {
					assumps = append(assumps, groupFuzzLit(b&0x0F))
					if b>>4 != 0 {
						assumps = append(assumps, groupFuzzLit(b>>4))
					}
				}
				r := s.SolveAssuming(assumps)
				queries++

				// The semantic content of the incremental state: base plus
				// the raw clauses of every live group.
				liveF := cnf.New(base.NumVars)
				for _, c := range base.Clauses {
					liveF.Add(c.Clone())
				}
				for _, g := range order {
					if s.GroupReleased(g) {
						continue
					}
					for _, c := range raw[g] {
						liveF.Add(c.Clone())
					}
				}
				ref := New(DefaultOptions())
				ref.AddFormula(liveF)
				rr := ref.SolveAssuming(append([]cnf.Lit(nil), assumps...))
				if r.Status != rr.Status {
					t.Fatalf("query %d: incremental %v, reference %v (base %v, ops % x)",
						queries, r.Status, rr.Status, base.Clauses, ops)
				}
				switch r.Status {
				case StatusSat:
					if !cnf.Assignment(r.Model).Satisfies(liveF) {
						t.Fatalf("query %d: model violates the live formula", queries)
					}
				case StatusUnsat:
					groups, user := s.UnsatCore()
					seenA := map[cnf.Lit]bool{}
					for _, l := range user {
						if seenA[l] {
							t.Fatalf("query %d: duplicate %v in failed assumptions", queries, l)
						}
						seenA[l] = true
						found := false
						for _, a := range assumps {
							if a == l {
								found = true
							}
						}
						if !found {
							t.Fatalf("query %d: failed literal %v was never assumed", queries, l)
						}
					}
					chk := New(DefaultOptions())
					chk.AddFormula(base)
					for _, g := range groups {
						if s.GroupReleased(g) {
							t.Fatalf("query %d: released group %v in core", queries, g)
						}
						for _, c := range raw[g] {
							chk.AddClause(c.Clone())
						}
					}
					if cr := chk.SolveAssuming(append([]cnf.Lit(nil), user...)); cr.Status != StatusUnsat {
						t.Fatalf("query %d: core (groups %v + %v) re-solves %v, want UNSAT",
							queries, groups, user, cr.Status)
					}
				}
			}
		}
		if !s.ok && proof.Len() > 0 {
			res, err := drup.Check(ext, &proof)
			if err != nil {
				t.Fatalf("group-stream proof rejected: %v", err)
			}
			if !res.EmptyDerived {
				t.Fatalf("refuted stream's proof never derives the empty clause: %+v", res)
			}
		}
	})
}

// BenchmarkGroupRelease measures a full group round-trip on a warm solver:
// mint, add a handful of clauses, solve, release, and the next solve's reap.
func BenchmarkGroupRelease(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	base := randomFormula(rng, 120, 380, 3)
	s := New(IncrementalOptions())
	s.AddFormula(base)
	s.Solve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := s.NewGroup()
		for j := 0; j < 8; j++ {
			v := i*7%110 + 1
			addGroupClause(s, g, cnf.NewClause(v, -(v%110+1), (v+j)%110+1))
		}
		s.Solve()
		s.ReleaseGroup(g)
	}
	b.StopTimer()
	s.Solve() // reap the last release outside the timed region
}

// BenchmarkUnsatCore measures an assumption-failure query plus core
// extraction, with shrink-based minimization enabled.
func BenchmarkUnsatCore(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	base := randomFormula(rng, 120, 380, 3)
	base.Add(cnf.NewClause(-1, -2))
	s := New(IncrementalOptions())
	s.AddFormula(base)
	s.SetShrinkBudget(100)
	s.Solve()
	assumps := []cnf.Lit{cnf.PosLit(3), cnf.PosLit(1), cnf.PosLit(2)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := s.SolveAssuming(assumps)
		if r.Status == StatusUnsat {
			s.UnsatCore()
		}
	}
}
