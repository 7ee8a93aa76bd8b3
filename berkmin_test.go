package berkmin_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"berkmin"
)

func TestPublicAPISatUnsat(t *testing.T) {
	s := berkmin.New()
	s.AddClause(1, 2)
	s.AddClause(-1)
	res := s.Solve()
	if res.Status != berkmin.StatusSat {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Model[1] || !res.Model[2] {
		t.Fatalf("model = %v", res.Model)
	}

	s2 := berkmin.New()
	s2.AddClause(1)
	s2.AddClause(-1)
	if r := s2.Solve(); r.Status != berkmin.StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
}

func TestAddClauseRejectsZeroLiteral(t *testing.T) {
	s := berkmin.New()
	if err := s.AddClause(1, 0, 2); !errors.Is(err, berkmin.ErrInvalidLiteral) {
		t.Fatalf("AddClause(1,0,2) err = %v, want ErrInvalidLiteral", err)
	}
	// The rejected clause must not have been recorded: the formula is
	// still empty and trivially satisfiable.
	if r := s.Solve(); r.Status != berkmin.StatusSat {
		t.Fatalf("status after rejected clause = %v", r.Status)
	}
}

// TestOutOfRangeLiteralsRejected: a variable above 2³⁰−1 cannot be encoded
// as a literal. Every entry point that takes literals as ints reports it
// instead of wrapping it onto a smaller variable (4294967297 used to become
// variable 1).
func TestOutOfRangeLiteralsRejected(t *testing.T) {
	s := berkmin.New()
	for _, l := range []int{1 << 30, -(1 << 30), 1<<32 + 1} {
		if err := s.AddClause(1, l); !errors.Is(err, berkmin.ErrInvalidLiteral) {
			t.Fatalf("AddClause(1, %d) err = %v, want ErrInvalidLiteral", l, err)
		}
	}
	if err := s.AddClause(-1); err != nil {
		t.Fatal(err)
	}
	g := s.NewClauseGroup()
	if err := s.AddClauseGroup(g, 1<<32+1); !errors.Is(err, berkmin.ErrInvalidLiteral) {
		t.Fatalf("AddClauseGroup err = %v, want ErrInvalidLiteral", err)
	}
	if _, err := s.SolveAssumingContext(context.Background(), 1<<32+1); !errors.Is(err, berkmin.ErrInvalidLiteral) {
		t.Fatalf("SolveAssumingContext err = %v, want ErrInvalidLiteral", err)
	}
	// Nothing rejected was recorded: only ¬x1 constrains the formula.
	if r := s.Solve(); r.Status != berkmin.StatusSat {
		t.Fatalf("status after rejected literals = %v", r.Status)
	}
}

func TestAddClauseOnDeadSolver(t *testing.T) {
	s := berkmin.New()
	if err := s.AddClause(1); err != nil {
		t.Fatalf("AddClause(1) err = %v", err)
	}
	if err := s.AddClause(-1); err != nil {
		// Deriving UNSAT is a successful add, not an error.
		t.Fatalf("AddClause(-1) err = %v", err)
	}
	if err := s.AddClause(2, 3); !errors.Is(err, berkmin.ErrSolverDead) {
		t.Fatalf("AddClause on dead solver err = %v, want ErrSolverDead", err)
	}
	if err := s.AddFormula(berkmin.Queens(4).Formula); !errors.Is(err, berkmin.ErrSolverDead) {
		t.Fatalf("AddFormula on dead solver err = %v, want ErrSolverDead", err)
	}
	if r := s.Solve(); r.Status != berkmin.StatusUnsat {
		t.Fatalf("dead solver status = %v", r.Status)
	}
}

func TestAddFormulaAndVerify(t *testing.T) {
	inst := berkmin.Queens(6)
	s := berkmin.New()
	s.AddFormula(inst.Formula)
	res := s.Solve()
	if res.Status != berkmin.StatusSat {
		t.Fatalf("queens6: %v", res.Status)
	}
	if !berkmin.Verify(inst.Formula, res.Model) {
		t.Fatal("Verify rejected a checked model")
	}
}

func TestOptionsPresetsSolve(t *testing.T) {
	inst := berkmin.Pigeonhole(5)
	for name, opt := range map[string]berkmin.Options{
		"default": berkmin.DefaultOptions(),
		"chaff":   berkmin.ChaffOptions(),
		"limmat":  berkmin.LimmatOptions(),
	} {
		s := berkmin.NewWithOptions(opt)
		s.AddFormula(inst.Formula)
		if r := s.Solve(); r.Status != berkmin.StatusUnsat {
			t.Fatalf("%s: %v", name, r.Status)
		}
	}
}

func TestDimacsRoundTripViaFacade(t *testing.T) {
	f := berkmin.NewFormula(3)
	f.AddClause(1, -2)
	f.AddClause(2, 3)
	var buf bytes.Buffer
	if err := berkmin.WriteDimacs(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := berkmin.ReadDimacs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVars != 3 || g.NumClauses() != 2 {
		t.Fatalf("round trip: %d vars %d clauses", g.NumVars, g.NumClauses())
	}
}

func TestWriteModelFacade(t *testing.T) {
	var buf bytes.Buffer
	if err := berkmin.WriteModel(&buf, []bool{false, true, false}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "-2") {
		t.Fatalf("model output: %q", buf.String())
	}
}

func TestCircuitFacade(t *testing.T) {
	a := berkmin.RippleAdder(3)
	b := berkmin.CarrySelectAdder(3, 2)
	f, err := berkmin.Miter(a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := berkmin.New()
	s.AddFormula(f)
	if r := s.Solve(); r.Status != berkmin.StatusUnsat {
		t.Fatalf("adder miter: %v", r.Status)
	}
}

func TestCircuitToCNFFacade(t *testing.T) {
	c := berkmin.NewCircuit()
	x := c.AddInput("x")
	y := c.AddInput("y")
	c.AddOutput("both", c.AndGate(x, y))
	f, inputs := berkmin.CircuitToCNF(c)
	if len(inputs) != 2 {
		t.Fatalf("inputs = %v", inputs)
	}
	s := berkmin.New()
	s.AddFormula(f)
	res := s.Solve()
	if res.Status != berkmin.StatusSat {
		t.Fatalf("status = %v", res.Status)
	}
	if !res.Model[inputs[0]] || !res.Model[inputs[1]] {
		t.Fatal("AND output forced true requires both inputs true")
	}
}

func TestSeqCircuitFacade(t *testing.T) {
	sc := berkmin.Counter(3, 4)
	f, err := sc.Unroll(4)
	if err != nil {
		t.Fatal(err)
	}
	s := berkmin.New()
	s.AddFormula(f)
	if r := s.Solve(); r.Status != berkmin.StatusSat {
		t.Fatalf("counter bmc: %v", r.Status)
	}
}

func TestSolverStatsAccessor(t *testing.T) {
	s := berkmin.New()
	s.AddFormula(berkmin.Pigeonhole(4).Formula)
	s.Solve()
	if s.Stats().Conflicts == 0 {
		t.Fatal("stats not collected")
	}
}

func TestGeneratorsExpectations(t *testing.T) {
	cases := []berkmin.Instance{
		berkmin.Pigeonhole(4),
		berkmin.Parity(20, 24, 1),
		berkmin.Queens(5),
		berkmin.AdderMiter(3, 0),
		berkmin.BuggyAdderMiter(3, 1),
		berkmin.MiterUnsat(6, 20, 2),
		berkmin.GatedConeMiter(5, 20, 3),
	}
	for _, inst := range cases {
		s := berkmin.New()
		s.AddFormula(inst.Formula)
		r := s.Solve()
		switch inst.Expected {
		case berkmin.ExpSat:
			if r.Status != berkmin.StatusSat {
				t.Fatalf("%s: %v", inst.Name, r.Status)
			}
		case berkmin.ExpUnsat:
			if r.Status != berkmin.StatusUnsat {
				t.Fatalf("%s: %v", inst.Name, r.Status)
			}
		}
	}
}

func TestUnknownUnderBudget(t *testing.T) {
	opt := berkmin.DefaultOptions()
	opt.MaxConflicts = 2
	s := berkmin.NewWithOptions(opt)
	s.AddFormula(berkmin.Pigeonhole(8).Formula)
	if r := s.Solve(); r.Status != berkmin.StatusUnknown {
		t.Fatalf("status = %v", r.Status)
	}
}
