package core

import (
	"bytes"
	"math/rand"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/drup"
)

// extendClause returns c extended with the group's negated activation
// literal — the shape a group clause is stored in and the shape a DRUP
// trace must be verified against.
func extendClause(s *Solver, g GroupID, c cnf.Clause) cnf.Clause {
	ext := append(c.Clone(), s.GroupLit(g).Not())
	return ext
}

// A group's clauses constrain every solve while the group is live and stop
// constraining after release; release is idempotent.
func TestGroupLifecycle(t *testing.T) {
	s := New(DefaultOptions())
	base := cnf.New(3)
	base.Add(cnf.NewClause(-1, 2))
	base.Add(cnf.NewClause(-2, 3))
	s.AddFormula(base)

	g := s.NewGroup()
	// The group is internally contradictory: (4 ∨ 5), (¬4), (¬5).
	addGroupClause(s, g, cnf.NewClause(4, 5))
	addGroupClause(s, g, cnf.NewClause(-4))
	addGroupClause(s, g, cnf.NewClause(-5))

	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("live contradictory group: %v, want UNSAT", r.Status)
	}
	groups, user := s.UnsatCore()
	if len(groups) != 1 || groups[0] != g {
		t.Fatalf("UnsatCore groups = %v, want [%v]", groups, g)
	}
	if len(user) != 0 {
		t.Fatalf("UnsatCore user lits = %v, want none", user)
	}

	if !s.ReleaseGroup(g) {
		t.Fatal("first ReleaseGroup returned false")
	}
	if s.ReleaseGroup(g) {
		t.Fatal("second ReleaseGroup returned true, want idempotent no-op")
	}
	if !s.GroupReleased(g) {
		t.Fatal("GroupReleased = false after release")
	}
	r := s.Solve()
	if r.Status != StatusSat {
		t.Fatalf("after release: %v, want SAT", r.Status)
	}
	if !cnf.Assignment(r.Model).Satisfies(base) {
		t.Fatal("model does not satisfy the base formula")
	}
	if c, u := s.UnsatCore(); c != nil || u != nil {
		t.Fatalf("UnsatCore after SAT = %v/%v, want nil/nil", c, u)
	}
}

// After release + one solve, the group's clauses are physically gone: no
// stored clause mentions the activation variable, the binary occurrence
// rows for it are empty, and the arena has been compacted (the add/release
// round-trip leaves no tombstones behind).
func TestGroupReleaseReapsClauses(t *testing.T) {
	s := New(DefaultOptions())
	base := cnf.New(3)
	base.Add(cnf.NewClause(-1, 2))
	base.Add(cnf.NewClause(-2, 3))
	s.AddFormula(base)

	g := s.NewGroup()
	act := s.GroupLit(g).Var()
	// A mix of tiers: the 2-literal raw clauses store as 3-literal arena
	// clauses, the unit raw clauses as binaries; (6) ∧ (¬6) makes the
	// group contradictory while live.
	addGroupClause(s, g, cnf.NewClause(4, 5))
	addGroupClause(s, g, cnf.NewClause(-4, -5))
	addGroupClause(s, g, cnf.NewClause(6))
	addGroupClause(s, g, cnf.NewClause(-6))
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("live group solve: %v, want UNSAT", r.Status)
	}
	s.ReleaseGroup(g)
	if r := s.Solve(); r.Status != StatusSat {
		t.Fatalf("post-release solve: %v, want SAT", r.Status)
	}

	for _, list := range [][]clauseRef{s.clauses, s.learnts} {
		for _, c := range list {
			for _, l := range s.ca.lits(c) {
				if l.Var() == act {
					t.Fatalf("clause %v still mentions the released activation var %d", s.ca.lits(c), act)
				}
			}
		}
	}
	for _, l := range []cnf.Lit{cnf.PosLit(act), cnf.NegLit(act)} {
		if n := len(s.binOcc[l]); n != 0 {
			t.Fatalf("binOcc[%v] has %d entries after release", l, n)
		}
		if n := len(s.binWatches[l]); n != 0 {
			t.Fatalf("binWatches[%v] has %d entries after release", l, n)
		}
	}
	if s.ca.wasted != 0 {
		t.Fatalf("arena still carries %d wasted words after the release reap's GC", s.ca.wasted)
	}
}

// UnsatCore with several groups: the reported groups plus failed
// assumptions, together with the permanent clauses, must be UNSAT on
// their own — validated by re-solving exactly that subset fresh.
func TestUnsatCoreValidatedByResolve(t *testing.T) {
	s := New(ModernOptions())
	base := cnf.New(2)
	base.Add(cnf.NewClause(1, 2))
	s.AddFormula(base)

	// g1 is innocent; g2 + the assumption ¬2 contradict the base clause.
	g1 := s.NewGroup()
	addGroupClause(s, g1, cnf.NewClause(1, 2)) // redundant, never in a core
	g2 := s.NewGroup()
	addGroupClause(s, g2, cnf.NewClause(-1))
	raw := map[GroupID][]cnf.Clause{
		g1: {cnf.NewClause(1, 2)},
		g2: {cnf.NewClause(-1)},
	}

	r := s.SolveAssuming([]cnf.Lit{cnf.NegLit(2)})
	if r.Status != StatusUnsat {
		t.Fatalf("solve: %v, want UNSAT", r.Status)
	}
	groups, user := s.UnsatCore()
	for _, g := range groups {
		if g != g1 && g != g2 {
			t.Fatalf("core names unknown group %v", g)
		}
	}
	// Re-solve the core alone: base + core groups' clauses + failed lits.
	check := New(DefaultOptions())
	check.AddFormula(base)
	for _, g := range groups {
		for _, c := range raw[g] {
			check.AddClause(c.Clone())
		}
	}
	if rr := check.SolveAssuming(append([]cnf.Lit(nil), user...)); rr.Status != StatusUnsat {
		t.Fatalf("core re-solve: %v, want UNSAT (core %v + %v is not contradictory)", rr.Status, groups, user)
	}
}

// The FailedAssumptions contract across every decider family: duplicates
// reported once, complementary assumptions reported as two entries, order
// follows the first occurrence in the caller's list, and the reported set
// re-solves to UNSAT on its own.
func TestFailedAssumptionsDedupOrder(t *testing.T) {
	families := map[string]Options{
		"berkmin": DefaultOptions(),
		"chaff":   ChaffOptions(),
		"evsids":  EvsidsOptions(),
		"lrb":     LrbOptions(),
	}
	for name, opt := range families {
		t.Run(name, func(t *testing.T) {
			build := func() *Solver {
				s := New(opt)
				f := cnf.New(4)
				f.Add(cnf.NewClause(-1, -2))
				s.AddFormula(f)
				return s
			}

			// Duplicate assumptions: 1 and 2 reported once each, caller order.
			s := build()
			assumps := []cnf.Lit{cnf.PosLit(1), cnf.PosLit(1), cnf.PosLit(2), cnf.PosLit(1), cnf.PosLit(2)}
			r := s.SolveAssuming(assumps)
			if r.Status != StatusUnsat {
				t.Fatalf("duplicates: %v, want UNSAT", r.Status)
			}
			want := []cnf.Lit{cnf.PosLit(1), cnf.PosLit(2)}
			if len(r.FailedAssumptions) != len(want) {
				t.Fatalf("failed = %v, want %v", r.FailedAssumptions, want)
			}
			for i, l := range want {
				if r.FailedAssumptions[i] != l {
					t.Fatalf("failed = %v, want %v (first-occurrence caller order)", r.FailedAssumptions, want)
				}
			}
			check := build()
			if rr := check.SolveAssuming(r.FailedAssumptions); rr.Status != StatusUnsat {
				t.Fatalf("failed set does not re-solve UNSAT: %v", rr.Status)
			}

			// Complementary assumptions: two distinct entries, in order.
			s = build()
			r = s.SolveAssuming([]cnf.Lit{cnf.PosLit(3), cnf.NegLit(3)})
			if r.Status != StatusUnsat {
				t.Fatalf("complementary: %v, want UNSAT", r.Status)
			}
			if len(r.FailedAssumptions) != 2 ||
				r.FailedAssumptions[0] != cnf.PosLit(3) || r.FailedAssumptions[1] != cnf.NegLit(3) {
				t.Fatalf("complementary failed = %v, want [3 ¬3]", r.FailedAssumptions)
			}

			// No solver-internal duplicates ever escape.
			seen := map[cnf.Lit]bool{}
			for _, l := range r.FailedAssumptions {
				if seen[l] {
					t.Fatalf("duplicate literal %v in FailedAssumptions", l)
				}
				seen[l] = true
			}
		})
	}
}

// shrinkFailed drops assumptions the failure does not need and restores
// the caller's conflict budget afterwards.
func TestShrinkFailed(t *testing.T) {
	s := New(DefaultOptions())
	f := cnf.New(3)
	f.Add(cnf.NewClause(-1, -2))
	s.AddFormula(f)
	s.SetShrinkBudget(1000)
	savedMax := s.opt.MaxConflicts

	// 3 is irrelevant padding; {1, 2} is the minimal failure.
	got, _ := s.shrinkFailed([]cnf.Lit{cnf.PosLit(3), cnf.PosLit(1), cnf.PosLit(2)}, nil)
	if len(got) != 2 {
		t.Fatalf("shrunk = %v, want the 2-literal minimum", got)
	}
	for _, l := range got {
		if l != cnf.PosLit(1) && l != cnf.PosLit(2) {
			t.Fatalf("shrunk = %v contains irrelevant literal %v", got, l)
		}
	}
	if s.opt.MaxConflicts != savedMax {
		t.Fatalf("MaxConflicts = %d after shrink, want restored %d", s.opt.MaxConflicts, savedMax)
	}

	// End to end: SolveAssuming minimizes when a budget is set, and the
	// result still re-solves UNSAT.
	r := s.SolveAssuming([]cnf.Lit{cnf.PosLit(3), cnf.PosLit(1), cnf.PosLit(2)})
	if r.Status != StatusUnsat {
		t.Fatalf("solve: %v, want UNSAT", r.Status)
	}
	if len(r.FailedAssumptions) > 2 {
		t.Fatalf("minimized FailedAssumptions = %v, want <= 2 literals", r.FailedAssumptions)
	}
	check := New(DefaultOptions())
	check.AddFormula(f)
	if rr := check.SolveAssuming(r.FailedAssumptions); rr.Status != StatusUnsat {
		t.Fatalf("minimized set does not re-solve UNSAT: %v", rr.Status)
	}
	if _, user := s.UnsatCore(); len(user) != len(r.FailedAssumptions) {
		t.Fatalf("UnsatCore user lits %v out of step with minimized result %v", user, r.FailedAssumptions)
	}
}

// Options.QueryDecay drives the decider's onNewQuery hook: activities fade
// between queries for the float-activity deciders, and the BerkMin integer
// counters take one aging step.
func TestOnNewQueryDecay(t *testing.T) {
	t.Run("evsids", func(t *testing.T) {
		opt := EvsidsOptions()
		opt.QueryDecay = 0.5
		s := New(opt)
		s.AddFormula(cnf.New(4))
		d := s.dec.(*evsidsDecider)
		d.act[1], d.act[2] = 8, 2
		d.onNewQuery()
		if d.act[1] != 4 || d.act[2] != 1 {
			t.Fatalf("acts = %v, want halved", d.act[1:3])
		}
	})
	t.Run("lrb", func(t *testing.T) {
		opt := LrbOptions()
		opt.QueryDecay = 0.5
		s := New(opt)
		s.AddFormula(cnf.New(4))
		d := s.dec.(*lrbDecider)
		d.act[1] = 8
		d.alpha = 0.01
		d.onNewQuery()
		if d.act[1] != 4 {
			t.Fatalf("act = %v, want 4", d.act[1])
		}
		if d.alpha != lrbAlpha {
			t.Fatalf("alpha = %v, want re-annealed to %v", d.alpha, lrbAlpha)
		}
	})
	t.Run("berkmin", func(t *testing.T) {
		opt := DefaultOptions()
		opt.QueryDecay = 0.5
		s := New(opt)
		s.AddFormula(cnf.New(4))
		d := s.dec.(*berkminDecider)
		d.varAct[1] = 8
		d.onNewQuery()
		if want := 8 / opt.AgingDivisor; d.varAct[1] != want {
			t.Fatalf("varAct = %d, want one aging step (%d)", d.varAct[1], want)
		}
	})
	t.Run("off-by-default", func(t *testing.T) {
		// QueryDecay outside (0,1) normalizes to 0: the hook never fires.
		for _, bad := range []float64{-1, 1, 2} {
			opt := EvsidsOptions()
			opt.QueryDecay = bad
			s := New(opt)
			if s.opt.QueryDecay != 0 {
				t.Fatalf("QueryDecay %v not normalized to 0", bad)
			}
		}
	})
}

// The group table is formula plane: Reset keeps it (a reset solver still
// enforces live groups), and Clone deep-copies it (releasing in a clone
// leaves the master enforced).
func TestGroupsSurviveCloneReset(t *testing.T) {
	s := New(DefaultOptions())
	base := cnf.New(2)
	base.Add(cnf.NewClause(1, 2))
	s.AddFormula(base)
	g := s.NewGroup()
	addGroupClause(s, g, cnf.NewClause(-1))
	addGroupClause(s, g, cnf.NewClause(-2))

	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("master: %v, want UNSAT under the live group", r.Status)
	}
	s.Reset()
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("after Reset: %v, want the group still enforced", r.Status)
	}

	c := s.Clone()
	c.ReleaseGroup(g)
	if r := c.Solve(); r.Status != StatusSat {
		t.Fatalf("clone after release: %v, want SAT", r.Status)
	}
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("master after clone's release: %v, want still UNSAT (table not shared)", r.Status)
	}
	if s.GroupReleased(g) {
		t.Fatal("master's group marked released by the clone")
	}
}

// TestDropGroups recycles one clone of a master (which holds a group of its
// own) through rounds of temp groups, fresh variables and queries under
// every decider family: after each DropGroups the solver is back at the
// master's group and variable counts, every structure passes
// checkInvariants (nothing names a dropped variable), the master's group
// is still enforced, and every query answers like a fresh clone given the
// same temp groups.
func TestDropGroups(t *testing.T) {
	for name, opt := range map[string]Options{
		"berkmin": DefaultOptions(),
		"evsids":  EvsidsOptions(),
		"lrb":     LrbOptions(),
		"tiered":  churnOptions(),
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			master := New(opt)
			for i := 0; i < 90; i++ {
				master.AddClause(cnf.Clause{
					cnf.MkLit(cnf.Var(1+rng.Intn(30)), rng.Intn(2) == 0),
					cnf.MkLit(cnf.Var(1+rng.Intn(30)), rng.Intn(2) == 0),
					cnf.MkLit(cnf.Var(1+rng.Intn(30)), rng.Intn(2) == 0),
				})
			}
			held := master.NewGroup()
			addGroupClause(master, held, cnf.NewClause(-1, -2))
			n, keep := master.NumVars(), master.NumGroups()

			w := master.Clone()
			for round := 0; round < 12; round++ {
				fresh := master.Clone()
				var temps []GroupID
				for k := 0; k < 1+round%3; k++ {
					g, fg := w.NewGroup(), fresh.NewGroup()
					for j := 0; j < 2; j++ {
						c := cnf.Clause{
							cnf.MkLit(cnf.Var(1+rng.Intn(n)), rng.Intn(2) == 0),
							cnf.MkLit(cnf.Var(1+rng.Intn(n+4)), rng.Intn(2) == 0), // may name a fresh variable
						}
						addGroupClause(w, g, c)
						addGroupClause(fresh, fg, c)
					}
					temps = append(temps, g)
				}
				if round%2 == 1 {
					w.ReleaseGroup(temps[0])
					fresh.ReleaseGroup(temps[0])
				}
				assumps := []cnf.Lit{
					cnf.MkLit(cnf.Var(1+rng.Intn(n)), rng.Intn(2) == 0),
					cnf.MkLit(cnf.Var(n+10+round), false), // a variable beyond every group's
				}
				r, fr := w.SolveAssuming(assumps), fresh.SolveAssuming(assumps)
				if r.Status != fr.Status {
					t.Fatalf("round %d: recycled %v, fresh clone %v", round, r.Status, fr.Status)
				}
				if !w.DropGroups(keep, n) {
					t.Fatalf("round %d: DropGroups refused a live solver (answer %v, dead %v)", round, r.Status, w.Dead())
				}
				if w.NumVars() != n || w.NumGroups() != keep {
					t.Fatalf("round %d: %d variables, %d groups after DropGroups, want %d and %d",
						round, w.NumVars(), w.NumGroups(), n, keep)
				}
				checkInvariants(t, w)
				if w.GroupReleased(held) {
					t.Fatalf("round %d: the master's group was released", round)
				}
				if l := w.GroupLit(held); w.value(l) != lUndef {
					t.Fatalf("round %d: the master's activation literal is fixed at level 0", round)
				}
			}
			// The held group still bites: with x1 and x2 both assumed it
			// forbids them together.
			if r := w.SolveAssuming([]cnf.Lit{cnf.PosLit(1), cnf.PosLit(2)}); r.Status != StatusUnsat {
				t.Fatalf("held group not enforced after recycling: %v", r.Status)
			}
		})
	}
}

// A DRUP trace spanning two group releases, level-0 reaping, and continued
// solving to a hard refutation verifies against the extended formula: base
// clauses + group clauses with activation literals + one release unit per
// released group.
func TestGroupReleaseProofDRUP(t *testing.T) {
	s := New(DefaultOptions())
	var proof bytes.Buffer
	s.SetProofWriter(&proof)

	ext := cnf.New(0) // the verification formula, mirrored as we go
	base := cnf.New(8)
	for v := 1; v < 8; v++ {
		base.Add(cnf.NewClause(-v, v+1))
	}
	s.AddFormula(base)
	for _, c := range base.Clauses {
		ext.Add(c.Clone())
	}

	g1 := s.NewGroup()
	for _, c := range []cnf.Clause{cnf.NewClause(9, 10), cnf.NewClause(-9), cnf.NewClause(-10)} {
		addGroupClause(s, g1, c)
		ext.Add(extendClause(s, g1, c))
	}
	g2 := s.NewGroup()
	for _, c := range []cnf.Clause{cnf.NewClause(11, 12), cnf.NewClause(-11, 12)} {
		addGroupClause(s, g2, c)
		ext.Add(extendClause(s, g2, c))
	}

	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("g1 live: %v, want UNSAT", r.Status)
	}
	s.ReleaseGroup(g1)
	ext.Add(cnf.Clause{s.GroupLit(g1).Not()})
	if r := s.Solve(); r.Status != StatusSat {
		t.Fatalf("g1 released, g2 live: %v, want SAT", r.Status)
	}
	s.ReleaseGroup(g2)
	ext.Add(cnf.Clause{s.GroupLit(g2).Not()})
	if r := s.Solve(); r.Status != StatusSat {
		t.Fatalf("both released: %v, want SAT", r.Status)
	}

	// Continue the same lifetime into a hard unconditional refutation (a
	// pigeonhole instance over fresh variables, clear of the activation
	// vars), driving learnt-clause additions, reductions, and finally the
	// empty clause.
	ph := pigeonhole(6)
	shift := 20
	for _, c := range ph.Clauses {
		nc := make(cnf.Clause, len(c))
		for i, l := range c {
			nc[i] = cnf.MkLit(l.Var()+cnf.Var(shift), l.Neg())
		}
		s.AddClause(nc)
		ext.Add(nc.Clone())
	}
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("pigeonhole epilogue: %v, want UNSAT", r.Status)
	}

	res, err := drup.Check(ext, &proof)
	if err != nil {
		t.Fatalf("proof spanning two group releases failed: %v", err)
	}
	if !res.EmptyDerived {
		t.Fatalf("proof never derives the empty clause: %+v", res)
	}
}

// addGroupClause adds c to the group as the front end does: the extended
// clause C ∨ ¬t goes down the ordinary AddClause path.
func addGroupClause(s *Solver, g GroupID, c cnf.Clause) {
	s.AddClause(extendClause(s, g, c))
}
