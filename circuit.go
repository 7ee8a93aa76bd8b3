package berkmin

import (
	"berkmin/internal/circuit"
)

// Circuit is a combinational gate-level netlist; see the methods on
// circuit.Circuit (AddInput, AndGate, OrGate, XorGate, MuxGate, AddOutput,
// Eval) for construction and simulation.
type Circuit = circuit.Circuit

// SeqCircuit is a synchronous sequential circuit with a safety property,
// unrollable into bounded-model-checking CNFs.
type SeqCircuit = circuit.SeqCircuit

// Signal references a circuit net, possibly inverted.
type Signal = circuit.Signal

// NewCircuit returns an empty circuit.
func NewCircuit() *Circuit { return circuit.New() }

// Datapath and protocol builders from the circuit substrate.
var (
	// RippleAdder, CarryLookaheadAdder and CarrySelectAdder build n-bit
	// adders in three architectures with identical interfaces.
	RippleAdder         = circuit.RippleAdder
	CarryLookaheadAdder = circuit.CarryLookaheadAdder
	CarrySelectAdder    = circuit.CarrySelectAdder
	// KoggeStoneAdder builds an n-bit parallel-prefix adder.
	KoggeStoneAdder = circuit.KoggeStoneAdder
	// ArrayMultiplier builds an n×n array multiplier.
	ArrayMultiplier = circuit.ArrayMultiplier
	// WallaceMultiplier builds an n×n Wallace-tree multiplier.
	WallaceMultiplier = circuit.WallaceMultiplier
	// Comparator builds an n-bit magnitude comparator (lt, eq, gt).
	Comparator = circuit.Comparator
	// BarrelShifter builds an n-bit logical left shifter (n a power of 2).
	BarrelShifter = circuit.BarrelShifter
	// ALU builds a 4-function (add/and/or/xor) n-bit ALU.
	ALU = circuit.ALU
	// RandomCircuit generates a seeded pseudo-random combinational DAG.
	RandomCircuit = circuit.Random
	// RewriteCircuit applies equivalence-preserving restructuring.
	RewriteCircuit = circuit.Rewrite
	// InjectFault introduces one local defect.
	InjectFault = circuit.InjectFault
	// Counter, FIFO and Arbiter build sequential circuits with safety
	// properties for bounded model checking.
	Counter = circuit.Counter
	FIFO    = circuit.FIFO
	Arbiter = circuit.Arbiter
)

// RandomCircuitOptions parameterizes RandomCircuit.
type RandomCircuitOptions = circuit.RandomOptions

// Miter builds the equivalence-checking CNF of two interface-identical
// circuits: satisfiable iff they differ on some input.
func Miter(a, b *Circuit) (*Formula, error) { return circuit.Miter(a, b) }

// MiterWithInputs additionally returns the CNF variables of the shared
// primary inputs so counterexamples can be decoded.
func MiterWithInputs(a, b *Circuit) (*Formula, []int, error) {
	f, vars, err := circuit.MiterWithInputs(a, b)
	if err != nil {
		return nil, nil, err
	}
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = int(v)
	}
	return f, out, nil
}

// CircuitToCNF Tseitin-encodes a circuit and asserts all outputs true,
// returning the formula and the CNF variables of the primary inputs.
func CircuitToCNF(c *Circuit) (*Formula, []int) {
	f, enc := circuit.ToCNF(c)
	vars := enc.InputVars(c)
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = int(v)
	}
	return f, out
}
