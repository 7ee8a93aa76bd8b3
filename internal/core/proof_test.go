package core

import (
	"bytes"
	"hash/fnv"
	"io"
	"strings"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/drup"
	"berkmin/internal/gen"
)

type devNull struct{}

func (devNull) Write(p []byte) (int, error) { return len(p), nil }

var _ io.Writer = devNull{}

func TestProofLoggingSteadyStateAllocs(t *testing.T) {
	s := New(DefaultOptions())
	s.SetProofWriter(devNull{})
	s.ensureVars(20)
	lits := cnf.NewClause(1, -2, 3, -4, 5)
	s.proof.Add(lits) // warm the buffer
	n := testing.AllocsPerRun(1000, func() {
		s.proof.Add(lits)
		s.proof.Delete(lits)
	})
	if n != 0 {
		t.Fatalf("proof logging allocates %v allocs/op in steady state, want 0", n)
	}
}

// A literal propagated at level 0 has no addition line of its own — the
// checker re-derives it from its antecedent clauses. Database management
// may then delete those antecedents, which would strand every later proof
// step that (implicitly) relies on the unit: learnt clauses omit level-0
// literals, so their RUP checks need the units derivable. clearLevel0Reasons
// is the choke point every deletion pass goes through, and it must make
// such units explicit before dropping the reason refs. Regression test for
// an EVSIDS-on-hole8 proof rejected exactly this way ("clause is not RUP"
// with deletions applied, verified clean with deletions stripped).
func TestClearLevel0ReasonsLogsDerivedUnits(t *testing.T) {
	s := New(DefaultOptions())
	var proof bytes.Buffer
	s.SetProofWriter(&proof)
	// Stored clauses first, then the units that make them propagate:
	// (¬1 ¬2 3) forces 3 with a clause-ref reason, the binary (¬3 4)
	// forces 4 with a literal-encoded (refBin) reason.
	s.AddClause(cnf.NewClause(-1, -2, 3))
	s.AddClause(cnf.NewClause(-3, 4))
	s.AddClause(cnf.NewClause(1))
	s.AddClause(cnf.NewClause(2))
	if confl := s.propagate(); confl != refUndef {
		t.Fatal("unexpected level-0 conflict")
	}
	if got := len(s.trail); got != 4 {
		t.Fatalf("trail = %d assignments, want 4", got)
	}
	if proof.Len() != 0 {
		t.Fatalf("unexpected proof lines before the reason sweep: %q", proof.String())
	}

	s.clearLevel0Reasons()
	steps, err := drup.ParseProof(bytes.NewReader(proof.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := []cnf.Lit{cnf.PosLit(3), cnf.PosLit(4)}
	if len(steps) != len(want) {
		t.Fatalf("logged %d proof steps, want %d unit additions: %q", len(steps), len(want), proof.String())
	}
	for i, st := range steps {
		if st.Delete || len(st.Lits) != 1 || st.Lits[0] != want[i] {
			t.Fatalf("step %d = delete=%v lits=%v, want unit addition %v (trail/derivation order)", i, st.Delete, st.Lits, want[i])
		}
	}

	// Idempotent: the reasons are gone, a second sweep logs nothing.
	proof.Reset()
	s.clearLevel0Reasons()
	if proof.Len() != 0 {
		t.Fatalf("second sweep re-logged units: %q", proof.String())
	}
}

// proofStreamTrace runs an incremental stream on hole7 with a DRUP trace
// attached and returns the trace: capped assumption queries, two clause
// groups with one released, level-0 units that strip literals from stored
// clauses and propagate further units, a Reset, and a Clone that finishes
// the refutation into the same trace.
func proofStreamTrace() []byte {
	var proof bytes.Buffer
	s := New(DefaultOptions())
	s.SetProofWriter(&proof)
	s.AddFormula(gen.Pigeonhole(7).Formula)
	g1, g2 := s.NewGroup(), s.NewGroup()
	addGroupClause(s, g1, cnf.NewClause(1, 2))
	addGroupClause(s, g1, cnf.NewClause(-3, 9))
	addGroupClause(s, g2, cnf.NewClause(-1, -10))
	budget := func(n uint64) { s.opt.MaxConflicts = s.stats.Conflicts + n }
	budget(300)
	s.SolveAssuming([]cnf.Lit{cnf.PosLit(4)})
	budget(300)
	s.SolveAssuming([]cnf.Lit{cnf.NegLit(1), cnf.PosLit(17)})
	s.ReleaseGroup(g1)
	for v := 1; v <= 6; v++ {
		s.AddClause(cnf.NewClause(-v))
	}
	budget(300)
	s.Solve()
	s.Reset()
	budget(200)
	s.SolveAssuming([]cnf.Lit{cnf.PosLit(12)})
	c := s.Clone()
	c.SetProofWriter(&proof)
	c.opt.MaxConflicts = 0
	c.Solve()
	return proof.Bytes()
}

// TestProofTraceGolden pins the engine's DRUP bytes: the full trace of
// hole7 and hole8 under berkmin, tiered and inprocessing with a
// 10k-conflict cap, and of an assumption/group stream that releases a
// group and crosses a Reset and a Clone. Between them the runs write every
// kind of line the engine logs: learnt clauses, database reduction,
// level-0 simplification and its derived units, inprocessing's
// subsumption, strengthening and vivification, group releases, Reset's
// learnt-clause deletions and the empty clause. The engine counterpart of simplify's TestGoldenOutcomes:
// the hashes were recorded at commit ccbd7c7, before the engine wrote its
// trace through drup.Log, and a change to how proof lines are produced
// must leave every byte as it is.
func TestProofTraceGolden(t *testing.T) {
	configs := map[string]Options{
		"berkmin":      DefaultOptions(),
		"tiered":       TieredOptions(),
		"inprocessing": InprocessingOptions(),
	}
	insts := map[string]gen.Instance{"hole7": gen.Pigeonhole(7), "hole8": gen.Pigeonhole(8)}
	trace := func(run string) []byte {
		if run == "stream" {
			return proofStreamTrace()
		}
		config, inst, _ := strings.Cut(run, "/")
		var proof bytes.Buffer
		opt := configs[config]
		opt.MaxConflicts = 10000
		s := New(opt)
		s.SetProofWriter(&proof)
		s.AddFormula(insts[inst].Formula)
		s.Solve()
		return proof.Bytes()
	}
	golden := []struct {
		run  string
		size int
		hash uint64
	}{
		{"berkmin/hole7", 439984, 0xb9e5719b35272724},
		{"berkmin/hole8", 2398391, 0x2a4f0e1e5f11f572},
		{"tiered/hole7", 336520, 0xb7ab986dbf129b37},
		{"tiered/hole8", 1346939, 0x6f19547e567408a1},
		{"inprocessing/hole7", 457274, 0xf631e5c32aa31aee},
		{"inprocessing/hole8", 2560881, 0x237fffb840488802},
		{"stream", 99578, 0xc8998b04c27d44e0},
	}
	for _, row := range golden {
		p := trace(row.run)
		h := fnv.New64a()
		h.Write(p)
		if got := h.Sum64(); len(p) != row.size || got != row.hash {
			t.Errorf("{%q, %d, %#x}, // want {%d, %#x}", row.run, len(p), got, row.size, row.hash)
		}
	}
}
