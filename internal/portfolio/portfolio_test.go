package portfolio

import (
	"context"
	"testing"
	"time"

	"berkmin/internal/cnf"
	"berkmin/internal/core"
	"berkmin/internal/gen"
)

// solve loads f into a fresh master and races the portfolio over it: the
// formula-in call the tests share.
func solve(f *cnf.Formula, opt Options) Result {
	master := core.New(core.DefaultOptions())
	master.AddFormula(f)
	return Race(context.Background(), master, opt)
}

// TestAgreesWithSequential: whatever member wins, the portfolio's answer
// matches the sequential solver's on SAT and UNSAT instances alike.
func TestAgreesWithSequential(t *testing.T) {
	insts := []gen.Instance{
		gen.Pigeonhole(6),          // unsat
		gen.Hanoi(3),               // sat
		gen.MiterUnsat(10, 40, 81), // unsat
		gen.Parity(32, 36, 10),     // sat
	}
	for _, inst := range insts {
		seq := core.New(core.DefaultOptions())
		seq.AddFormula(inst.Formula)
		want := seq.Solve().Status

		got := solve(inst.Formula, Options{Jobs: 4})
		if got.Status != want {
			t.Fatalf("%s: portfolio %v, sequential %v", inst.Name, got.Status, want)
		}
		if got.Winner == "" {
			t.Fatalf("%s: definitive answer without a winner", inst.Name)
		}
		if got.Stop != core.StopNone {
			t.Fatalf("%s: stop = %v on a definitive answer", inst.Name, got.Stop)
		}
		if len(got.Jobs) != 4 {
			t.Fatalf("%s: %d job results, want 4", inst.Name, len(got.Jobs))
		}
		if got.Status == core.StatusSat && !cnf.Assignment(got.Model).Satisfies(inst.Formula) {
			t.Fatalf("%s: winning model does not satisfy the formula", inst.Name)
		}
	}
}

// TestLosersAreCancelled: once a winner answers, every other member comes
// back — either with its own (identical-status or unknown) result or
// interrupted; no goroutine is left behind and no job slot stays empty.
func TestLosersAreCancelled(t *testing.T) {
	inst := gen.Pigeonhole(7)
	r := solve(inst.Formula, Options{Jobs: 4})
	if r.Status != core.StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	definitive := 0
	for _, j := range r.Jobs {
		switch j.Result.Status {
		case core.StatusUnknown:
			if j.Result.Stop != core.StopInterrupted {
				t.Fatalf("job %s: unknown with stop %v, want interrupted (no budgets were set)",
					j.Config, j.Result.Stop)
			}
		case core.StatusSat:
			t.Fatalf("job %s claims SAT on a pigeonhole instance", j.Config)
		default:
			definitive++
		}
	}
	if definitive == 0 {
		t.Fatal("no member produced the answer")
	}
}

// TestBudgetExhaustion: when every member runs out of budget the result is
// unknown, with a resource-limit stop reason and no winner.
func TestBudgetExhaustion(t *testing.T) {
	inst := gen.Pigeonhole(10)
	r := solve(inst.Formula, Options{Jobs: 3, MaxConflicts: 10})
	if r.Status != core.StatusUnknown {
		t.Fatalf("status = %v", r.Status)
	}
	if r.Winner != "" {
		t.Fatalf("winner = %q on an unknown result", r.Winner)
	}
	if !r.Stop.ResourceLimit() {
		t.Fatalf("stop = %v, want a resource limit", r.Stop)
	}
}

// TestClauseSharing: members exchange short learnt clauses; on an instance
// with thousands of conflicts at least one clause crosses the hub.
func TestClauseSharing(t *testing.T) {
	inst := gen.Pigeonhole(7)
	r := solve(inst.Formula, Options{Jobs: 4})
	if r.Status != core.StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	var shared uint64
	for _, j := range r.Jobs {
		shared += j.Result.Stats.ExportedClauses
	}
	if shared == 0 {
		t.Fatal("no clauses shared between members")
	}
}

// TestVariantsDiversified: any requested size yields unique names and
// pairwise-distinct seeds.
func TestVariantsDiversified(t *testing.T) {
	cfgs := Variants(20, 7)
	if len(cfgs) != 20 {
		t.Fatalf("got %d variants", len(cfgs))
	}
	names := map[string]bool{}
	seeds := map[uint64]bool{}
	for _, c := range cfgs {
		if names[c.Name] {
			t.Fatalf("duplicate variant name %q", c.Name)
		}
		names[c.Name] = true
		if seeds[c.Opt.Seed] {
			t.Fatalf("duplicate seed %d", c.Opt.Seed)
		}
		seeds[c.Opt.Seed] = true
	}
}

// TestSolveFromSolver: racing clones of an already-loaded base solver
// agrees with the sequential answer, and the base itself stays untouched —
// it can serve further Race calls and even be solved on afterwards.
func TestSolveFromSolver(t *testing.T) {
	insts := []gen.Instance{
		gen.Pigeonhole(6),     // unsat
		gen.Parity(32, 36, 5), // sat
	}
	for _, inst := range insts {
		seq := core.New(core.DefaultOptions())
		seq.AddFormula(inst.Formula)
		want := seq.Solve().Status

		base := core.New(core.DefaultOptions())
		base.AddFormula(inst.Formula)
		before := base.Stats()
		for round := 0; round < 2; round++ {
			r := Race(context.Background(), base, Options{Jobs: 3})
			if r.Status != want {
				t.Fatalf("%s round %d: portfolio %v, sequential %v", inst.Name, round, r.Status, want)
			}
			if r.Status == core.StatusSat && !cnf.Assignment(r.Model).Satisfies(inst.Formula) {
				t.Fatalf("%s: winning model does not satisfy the formula", inst.Name)
			}
		}
		after := base.Stats()
		if after.Conflicts != before.Conflicts || after.Propagations != before.Propagations {
			t.Fatalf("%s: base solver was mutated by Race", inst.Name)
		}
		if got := base.Solve().Status; got != want {
			t.Fatalf("%s: base solves to %v after serving clones, want %v", inst.Name, got, want)
		}
	}
}

// TestInterruptLatency is a coarse regression guard: a 4-job portfolio on a
// trivially easy instance must come back quickly even though three members
// have to be cancelled mid-search.
func TestInterruptLatency(t *testing.T) {
	f := cnf.New(2)
	f.Add(cnf.NewClause(1, 2))
	start := time.Now()
	r := solve(f, Options{Jobs: 4})
	if r.Status != core.StatusSat {
		t.Fatalf("status = %v", r.Status)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("portfolio took %v on a one-clause formula", d)
	}
}

// TestVariantsCoverDeciderFamilies: the first three variants already span
// all three branching families (BerkMin-style, EVSIDS, LRB), so any
// portfolio of three or more members carries one of each.
func TestVariantsCoverDeciderFamilies(t *testing.T) {
	cfgs := Variants(3, 1)
	families := map[core.DecisionMode]bool{}
	for _, c := range cfgs {
		families[c.Opt.Decision] = true
	}
	if !families[core.DecideEvsids] {
		t.Fatal("no EVSIDS member in a 3-way portfolio")
	}
	if !families[core.DecideLrb] {
		t.Fatal("no LRB member in a 3-way portfolio")
	}
	legacy := false
	for m := range families {
		if m != core.DecideEvsids && m != core.DecideLrb {
			legacy = true
		}
	}
	if !legacy {
		t.Fatal("no BerkMin-family member in a 3-way portfolio")
	}
}
