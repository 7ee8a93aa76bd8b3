package drup_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/core"
	"berkmin/internal/drup"
	"berkmin/internal/gen"
)

func TestParseProof(t *testing.T) {
	steps, err := drup.ParseProof(strings.NewReader("1 2 0\nd 1 2 0\n0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 {
		t.Fatalf("steps = %d", len(steps))
	}
	if steps[0].Delete || !steps[1].Delete || steps[2].Delete {
		t.Fatal("delete flags wrong")
	}
	if len(steps[2].Lits) != 0 {
		t.Fatal("empty clause not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"1 2\n", "x 0\n", "1073741824 0\n", "d -4294967297 0\n"} {
		if _, err := drup.ParseProof(strings.NewReader(in)); err == nil {
			t.Errorf("expected parse error for %q", in)
		}
	}
}

func TestCheckTrivialProof(t *testing.T) {
	// x ∧ ¬x: the empty clause is directly RUP.
	f := cnf.New(1)
	f.AddClause(1)
	f.AddClause(-1)
	res, err := drup.Check(f, strings.NewReader("0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.EmptyDerived {
		t.Fatal("empty clause not derived")
	}
}

func TestCheckRejectsBogusStep(t *testing.T) {
	f := cnf.New(2)
	f.AddClause(1, 2)
	// Claiming unit 1 is not RUP here.
	if _, err := drup.Check(f, strings.NewReader("1 0\n0\n")); err == nil {
		t.Fatal("bogus proof accepted")
	}
}

func TestCheckRejectsIncompleteProof(t *testing.T) {
	f := cnf.New(2)
	f.AddClause(1)
	f.AddClause(-1, 2)
	// Valid RUP addition but no empty clause.
	if _, err := drup.Check(f, strings.NewReader("2 0\n")); err == nil {
		t.Fatal("incomplete proof accepted")
	}
}

func TestUnknownDeletionTolerated(t *testing.T) {
	f := cnf.New(1)
	f.AddClause(1)
	f.AddClause(-1)
	res, err := drup.Check(f, strings.NewReader("d 5 6 0\n0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if res.UnknownDeletions != 1 {
		t.Fatalf("unknown deletions = %d", res.UnknownDeletions)
	}
}

// solveWithProof runs the solver with proof logging and returns the trace.
func solveWithProof(t *testing.T, f *cnf.Formula, opt core.Options) (core.Status, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	s := core.New(opt)
	s.SetProofWriter(&buf)
	s.AddFormula(f)
	r := s.Solve()
	return r.Status, &buf
}

func TestSolverProofsPigeonhole(t *testing.T) {
	for n := 3; n <= 6; n++ {
		inst := gen.Pigeonhole(n)
		status, proof := solveWithProof(t, inst.Formula, core.DefaultOptions())
		if status != core.StatusUnsat {
			t.Fatalf("hole%d: %v", n, status)
		}
		res, err := drup.Check(inst.Formula, proof)
		if err != nil {
			t.Fatalf("hole%d proof rejected: %v", n, err)
		}
		if !res.EmptyDerived || res.Additions == 0 {
			t.Fatalf("hole%d: degenerate proof %+v", n, res)
		}
	}
}

func TestSolverProofsMiter(t *testing.T) {
	inst := gen.MiterUnsat(8, 30, 9)
	status, proof := solveWithProof(t, inst.Formula, core.DefaultOptions())
	if status != core.StatusUnsat {
		t.Fatalf("miter: %v", status)
	}
	if _, err := drup.Check(inst.Formula, proof); err != nil {
		t.Fatalf("miter proof rejected: %v", err)
	}
}

func TestSolverProofsAdderMiter(t *testing.T) {
	inst := gen.AdderMiter(4, 0)
	status, proof := solveWithProof(t, inst.Formula, core.DefaultOptions())
	if status != core.StatusUnsat {
		t.Fatalf("adder: %v", status)
	}
	if _, err := drup.Check(inst.Formula, proof); err != nil {
		t.Fatalf("adder proof rejected: %v", err)
	}
}

func TestSolverProofsDinphil(t *testing.T) {
	inst := gen.CompetitionDinphil(7, 2)
	status, proof := solveWithProof(t, inst.Formula, core.DefaultOptions())
	if status != core.StatusUnsat {
		t.Fatalf("dinphil: %v", status)
	}
	if _, err := drup.Check(inst.Formula, proof); err != nil {
		t.Fatalf("dinphil proof rejected: %v", err)
	}
}

func TestSolverProofsAllConfigs(t *testing.T) {
	inst := gen.Pigeonhole(5)
	configs := map[string]core.Options{
		"default":   core.DefaultOptions(),
		"chaff":     core.ChaffOptions(),
		"limmat":    core.LimmatOptions(),
		"less_sens": core.LessSensitivityOptions(),
		"less_mob":  core.LessMobilityOptions(),
		"limited":   core.LimitedKeepingOptions(),
	}
	for name, opt := range configs {
		status, proof := solveWithProof(t, inst.Formula, opt)
		if status != core.StatusUnsat {
			t.Fatalf("%s: %v", name, status)
		}
		if _, err := drup.Check(inst.Formula, proof); err != nil {
			t.Fatalf("%s proof rejected: %v", name, err)
		}
	}
}

func TestSolverProofsRandomUnsat(t *testing.T) {
	// Random over-constrained formulas: every UNSAT one must check.
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for iter := 0; iter < 200 && checked < 40; iter++ {
		n := 4 + rng.Intn(6)
		m := 6 * n
		f := cnf.New(n)
		for i := 0; i < m; i++ {
			k := 1 + rng.Intn(3)
			c := make(cnf.Clause, 0, k)
			for j := 0; j < k; j++ {
				v := cnf.Var(1 + rng.Intn(n))
				c = append(c, cnf.MkLit(v, rng.Intn(2) == 0))
			}
			f.Add(c)
		}
		status, proof := solveWithProof(t, f, core.DefaultOptions())
		if status != core.StatusUnsat {
			continue
		}
		checked++
		if _, err := drup.Check(f, proof); err != nil {
			t.Fatalf("iter %d: proof rejected: %v", iter, err)
		}
	}
	if checked == 0 {
		t.Fatal("no UNSAT instances generated; tighten the generator")
	}
}
