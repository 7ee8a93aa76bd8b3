package core

import (
	"math/rand"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/gen"
)

// satisfied reports whether the clause currently has a true literal.
func (s *Solver) satisfied(c clauseRef) bool { return s.satLit(c) != cnf.LitUndef }

// naiveTopClause is the reference §5 scan currentTopClause must agree
// with: walk the learnt stack from the top, reading every clause's
// literals, and stop at the first clause with no true literal.
func naiveTopClause(s *Solver) (clauseRef, int) {
	for i := len(s.learnts) - 1; i >= 0; i-- {
		c := s.learnts[i]
		sat := false
		for _, l := range s.ca.lits(c) {
			if s.value(l) == lTrue {
				sat = true
				break
			}
		}
		if !sat {
			return c, len(s.learnts) - 1 - i
		}
	}
	return refUndef, 0
}

// naiveMostActiveFreeVar is the reference §7 scan the cached global pick
// must agree with: the free variable of largest var_activity, the lowest
// index on ties; 0 when every variable is assigned.
func naiveMostActiveFreeVar(d *berkminDecider) cnf.Var {
	var best cnf.Var
	bestAct := int64(-1)
	for v := cnf.Var(1); int(v) <= d.s.nVars; v++ {
		if d.s.value(cnf.PosLit(v)) != lUndef {
			continue
		}
		if a := d.varAct[v]; a > bestAct {
			best, bestAct = v, a
		}
	}
	return best
}

// checkTopMirror asserts the top-clause scan's mirror invariant: entry i
// names learnts[i], and its literal (if any) is a literal of that clause.
func checkTopMirror(t testing.TB, s *Solver) {
	t.Helper()
	if len(s.top.sat) > len(s.learnts) {
		t.Fatalf("invariant: top-clause mirror holds %d entries, learnt stack %d",
			len(s.top.sat), len(s.learnts))
	}
	for i, e := range s.top.sat {
		if e.c != s.learnts[i] {
			t.Fatalf("invariant: mirror entry %d names clause %d, stack holds %d", i, e.c, s.learnts[i])
		}
		if e.lit != cnf.LitUndef && !s.ca.has(e.c, e.lit) {
			t.Fatalf("invariant: mirror entry %d names %v, not a literal of %v", i, e.lit, s.ca.lits(e.c))
		}
	}
}

// checkDecider wraps the BerkMin decider: before every real pick it runs
// the naive scans and asserts that the incremental ones return the same
// top clause, distance and global variable. The incremental scans have no
// effect on the search besides their own caches, so a checked solve makes
// exactly the decisions of an unchecked one.
type checkDecider struct {
	*berkminDecider
	t      testing.TB
	checks *int // picks checked, shared with clones
}

// installCheck wraps s's BerkMin decider and returns the check counter.
func installCheck(t testing.TB, s *Solver) *int {
	n := new(int)
	s.dec = &checkDecider{berkminDecider: bm(s), t: t, checks: n}
	return n
}

func (c *checkDecider) pick() cnf.Lit {
	t, s := c.t, c.s
	t.Helper()
	checkTopMirror(t, s)
	if s.opt.Decision != DecideChaffLiteral {
		wantC, wantR := naiveTopClause(s)
		gotC, gotR := s.currentTopClause()
		if gotC != wantC || gotR != wantR {
			t.Fatalf("pick %d: top clause %d at r=%d, naive scan %d at r=%d",
				*c.checks, gotC, gotR, wantC, wantR)
		}
		// The heap pick pops as it reads; only the scan has a cache.
		if !s.opt.OptimizedGlobalPick {
			want := naiveMostActiveFreeVar(c.berkminDecider)
			if got := c.mostActiveFreeVar(); got != want {
				t.Fatalf("pick %d: global pick x%d (act %d), naive scan x%d (act %d)",
					*c.checks, got, c.varAct[got], want, c.varAct[want])
			}
		}
		*c.checks++
	}
	return c.berkminDecider.pick()
}

func (c *checkDecider) clone(ns *Solver) decider {
	return &checkDecider{berkminDecider: c.berkminDecider.clone(ns).(*berkminDecider), t: c.t, checks: c.checks}
}

// TestDecideCachesMatchNaiveSolve runs whole solves of the BerkMin
// configurations whose picks use the scans — the default, Less_mobility,
// Less_sensitivity and random branch selection — under the checking
// decider. The workload restarts, reduces the database and compacts the
// arena, each of which rewrites what the caches remember; the checked
// solves must also reproduce the unchecked solves' conflict counts.
func TestDecideCachesMatchNaiveSolve(t *testing.T) {
	instances := []gen.Instance{
		gen.Pigeonhole(7),
		gen.Parity(16, 16, 9),
		gen.Hanoi(3),
		gen.MiterUnsat(10, 40, 81),
	}
	for name, opt := range map[string]Options{
		"berkmin":          DefaultOptions(),
		"less-mobility":    LessMobilityOptions(),
		"less-sensitivity": LessSensitivityOptions(),
		"take-rand":        BranchOptions(PolarityTakeRand),
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var restarts, deleted, gcs uint64
			checks := 0
			for _, in := range instances {
				plain := New(opt)
				plain.AddFormula(in.Formula)
				want := plain.Solve()

				s := New(opt)
				n := installCheck(t, s)
				s.AddFormula(in.Formula)
				got := s.Solve()
				if got.Status != want.Status || got.Stats.Conflicts != want.Stats.Conflicts ||
					got.Stats.Decisions != want.Stats.Decisions {
					t.Fatalf("%s: checked solve %v/%d conflicts/%d decisions, unchecked %v/%d/%d",
						in.Name, got.Status, got.Stats.Conflicts, got.Stats.Decisions,
						want.Status, want.Stats.Conflicts, want.Stats.Decisions)
				}
				checkInvariants(t, s)
				restarts += got.Stats.Restarts
				deleted += got.Stats.DeletedTotal
				gcs += got.Stats.ArenaGCs
				checks += *n
			}
			if restarts == 0 || deleted == 0 || gcs == 0 {
				t.Fatalf("workload too easy: %d restarts, %d deleted learnts, %d arena GCs",
					restarts, deleted, gcs)
			}
			t.Logf("%d checked picks, %d restarts, %d deleted, %d GCs", checks, restarts, deleted, gcs)
		})
	}
}

// TestDecideCachesMatchNaiveStream drives an incremental query stream
// under the checking decider: clause groups minted and released,
// assumptions, between-query decay, and the lifecycle steps Reset,
// DropGroups and Clone, each followed by more checked queries.
func TestDecideCachesMatchNaiveStream(t *testing.T) {
	decay := DefaultOptions()
	decay.QueryDecay = 0.7
	for name, opt := range map[string]Options{
		"berkmin":       DefaultOptions(),
		"less-mobility": LessMobilityOptions(),
		"query-decay":   decay,
	} {
		// Short restart intervals put database passes inside the queries.
		opt.RestartFirst, opt.RestartJitter = 8, 3
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(7))
			// Random 3-SAT near the threshold: the queries conflict, restart
			// and learn, and the assumptions and group clauses make some of
			// them UNSAT.
			const nv = 60
			s := New(opt)
			checks := installCheck(t, s)
			for k := 0; k < 200; k++ {
				s.AddClause(randomClause(rng, nv, 3))
			}

			query := func(s *Solver) {
				t.Helper()
				var assumps []cnf.Lit
				for k := rng.Intn(4); k > 0; k-- {
					assumps = append(assumps, cnf.MkLit(cnf.Var(rng.Intn(nv)+1), rng.Intn(2) == 0))
				}
				r := s.SolveAssuming(assumps)
				if r.Status == StatusUnknown {
					t.Fatalf("unexpected UNKNOWN")
				}
				checkInvariants(t, s)
			}
			groupQueries := func(s *Solver, rounds int) {
				t.Helper()
				for i := 0; i < rounds; i++ {
					g := s.NewGroup()
					for k := 0; k < 4; k++ {
						addGroupClause(s, g, randomClause(rng, nv, 3))
					}
					query(s)
					query(s)
					if rng.Intn(3) != 0 {
						s.ReleaseGroup(g)
					}
				}
			}

			groupQueries(s, 6)
			c := s.Clone()
			groupQueries(c, 4)
			groupQueries(s, 2)
			s.Reset()
			groupQueries(s, 4)
			keep := s.NumGroups()
			groupQueries(s, 3)
			if !s.DropGroups(keep, s.NumVars()-3) && s.ok {
				t.Fatal("DropGroups refused a live solver")
			}
			groupQueries(s, 4)
			st := s.Stats()
			t.Logf("%d checked picks; last lifetime %d conflicts, %d restarts", *checks, st.Conflicts, st.Restarts)
			if *checks == 0 || st.Conflicts == 0 {
				t.Fatal("the stream neither picked nor conflicted")
			}
		})
	}
}

// TestDecideCachesMatchNaiveWalk decides, propagates and backtracks in an
// order no solve produces: after a budget-limited solve has built a learnt
// stack and activities, a random walk takes checked decisions and
// backtracks to a random level — on a conflict and now and then without
// one — with no conflict analysis, so no activity bump empties the
// candidate list before a backtrack does.
func TestDecideCachesMatchNaiveWalk(t *testing.T) {
	for name, opt := range map[string]Options{
		"berkmin":       DefaultOptions(),
		"less-mobility": LessMobilityOptions(),
	} {
		t.Run(name, func(t *testing.T) {
			opt.MaxConflicts = 300
			s := New(opt)
			checks := installCheck(t, s)
			s.AddFormula(gen.Pigeonhole(7).Formula)
			if r := s.Solve(); r.Stop != StopConflicts || len(s.learnts) == 0 {
				t.Fatalf("setup solve: %v/%v with %d learnts", r.Status, r.Stop, len(s.learnts))
			}
			rng := rand.New(rand.NewSource(3))
			backtracks := 0
			for step := 0; step < 3000; step++ {
				if s.propagate() == refUndef && rng.Intn(8) != 0 {
					if l := s.decide(); l != cnf.LitUndef {
						s.newDecisionLevel()
						s.enqueue(l, refUndef)
						continue
					}
				}
				if s.decisionLevel() > 0 {
					s.cancelUntil(rng.Intn(s.decisionLevel()))
					backtracks++
				}
			}
			s.cancelUntil(0)
			checkInvariants(t, s)
			t.Logf("%d checked picks, %d backtracks", *checks, backtracks)
		})
	}
}

// randomClause draws a k-literal clause over variables 1..nv.
func randomClause(rng *rand.Rand, nv, k int) cnf.Clause {
	c := make(cnf.Clause, k)
	for i := range c {
		c[i] = cnf.MkLit(cnf.Var(rng.Intn(nv)+1), rng.Intn(2) == 0)
	}
	return c
}
