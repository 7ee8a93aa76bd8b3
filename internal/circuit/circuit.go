// Package circuit is the hardware substrate behind the paper's benchmark
// families: combinational gate-level netlists with simulation, Tseitin CNF
// encoding, miter construction for equivalence checking, equivalence-
// preserving rewriting and fault injection, plus sequential circuits with
// bounded-model-checking unrolling.
//
// The paper's Miters class was produced by the authors from "artificial
// combinational circuits" (§4); the Sss/Fvp/Vliw classes are processor-
// verification CNFs; several SAT-2002 instances are BMC unrollings. This
// package regenerates all of those shapes.
package circuit

import "fmt"

// Op is a gate operation. And/Or/Nand/Nor accept any fanin >= 1; Xor/Xnor
// are n-ary parity gates; Not/Buf are unary; Input and Const0 have no
// fanin.
type Op int8

const (
	Input Op = iota
	Const0
	Buf
	Not
	And
	Or
	Nand
	Nor
	Xor
	Xnor
)

func (op Op) String() string {
	switch op {
	case Input:
		return "input"
	case Const0:
		return "const0"
	case Buf:
		return "buf"
	case Not:
		return "not"
	case And:
		return "and"
	case Or:
		return "or"
	case Nand:
		return "nand"
	case Nor:
		return "nor"
	case Xor:
		return "xor"
	case Xnor:
		return "xnor"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// Signal references a gate output, possibly inverted: gate index << 1, low
// bit set when inverted. Inverters are free, as in AIG-style netlists.
type Signal int32

// MkSignal builds a signal for the gate index.
func MkSignal(gate int) Signal { return Signal(gate << 1) }

// Gate returns the referenced gate index.
func (s Signal) Gate() int { return int(s >> 1) }

// Inverted reports whether the signal is complemented.
func (s Signal) Inverted() bool { return s&1 == 1 }

// Invert returns the complemented signal.
func (s Signal) Invert() Signal { return s ^ 1 }

// Gate is one netlist node.
type Gate struct {
	Op Op
	In []Signal
	// Name optionally labels primary inputs and interesting nets.
	Name string
}

// Circuit is a combinational netlist. Gates are stored in topological
// order: a gate's fanins always reference lower indices. Gate 0 is always
// the constant-0 gate.
type Circuit struct {
	Gates   []Gate
	PIs     []int    // gate indices of the primary inputs, in declaration order
	POs     []Signal // primary outputs
	PONames []string // optional, parallel to POs
}

// New returns an empty circuit containing only the constant-0 gate.
func New() *Circuit {
	return &Circuit{Gates: []Gate{{Op: Const0}}}
}

// False returns the constant-0 signal; True its complement.
func (c *Circuit) False() Signal { return MkSignal(0) }

// True returns the constant-1 signal.
func (c *Circuit) True() Signal { return MkSignal(0).Invert() }

// AddInput declares a primary input and returns its signal.
func (c *Circuit) AddInput(name string) Signal {
	idx := len(c.Gates)
	c.Gates = append(c.Gates, Gate{Op: Input, Name: name})
	c.PIs = append(c.PIs, idx)
	return MkSignal(idx)
}

// AddInputs declares n primary inputs named prefix0..prefixN-1.
func (c *Circuit) AddInputs(prefix string, n int) []Signal {
	out := make([]Signal, n)
	for i := range out {
		out[i] = c.AddInput(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// addGate appends a gate and returns its output signal. Fanins must refer
// to existing gates (topological order is preserved by construction).
func (c *Circuit) addGate(op Op, in ...Signal) Signal {
	for _, s := range in {
		if s.Gate() >= len(c.Gates) {
			panic(fmt.Sprintf("circuit: fanin %d out of range", s.Gate()))
		}
	}
	idx := len(c.Gates)
	c.Gates = append(c.Gates, Gate{Op: op, In: in})
	return MkSignal(idx)
}

// AndGate returns the conjunction of the signals.
func (c *Circuit) AndGate(in ...Signal) Signal {
	switch len(in) {
	case 0:
		return c.True()
	case 1:
		return in[0]
	}
	return c.addGate(And, in...)
}

// OrGate returns the disjunction of the signals.
func (c *Circuit) OrGate(in ...Signal) Signal {
	switch len(in) {
	case 0:
		return c.False()
	case 1:
		return in[0]
	}
	return c.addGate(Or, in...)
}

// NandGate returns the complemented conjunction.
func (c *Circuit) NandGate(in ...Signal) Signal { return c.addGate(Nand, in...) }

// NorGate returns the complemented disjunction.
func (c *Circuit) NorGate(in ...Signal) Signal { return c.addGate(Nor, in...) }

// XorGate returns the parity of the signals.
func (c *Circuit) XorGate(in ...Signal) Signal {
	switch len(in) {
	case 0:
		return c.False()
	case 1:
		return in[0]
	}
	return c.addGate(Xor, in...)
}

// XnorGate returns the complemented parity.
func (c *Circuit) XnorGate(in ...Signal) Signal { return c.addGate(Xnor, in...) }

// BufGate materializes a buffer gate (used by rewrites to perturb
// structure without changing function).
func (c *Circuit) BufGate(s Signal) Signal { return c.addGate(Buf, s) }

// MuxGate returns sel ? a : b.
func (c *Circuit) MuxGate(sel, a, b Signal) Signal {
	t := c.AndGate(sel, a)
	e := c.AndGate(sel.Invert(), b)
	return c.OrGate(t, e)
}

// AddOutput declares a primary output.
func (c *Circuit) AddOutput(name string, s Signal) {
	c.POs = append(c.POs, s)
	c.PONames = append(c.PONames, name)
}

// NumGates returns the gate count (including the constant gate).
func (c *Circuit) NumGates() int { return len(c.Gates) }

// NumInputs returns the primary input count.
func (c *Circuit) NumInputs() int { return len(c.PIs) }

// NumOutputs returns the primary output count.
func (c *Circuit) NumOutputs() int { return len(c.POs) }

// Eval computes all primary outputs for one input vector (parallel to PIs).
func (c *Circuit) Eval(inputs []bool) []bool {
	if len(inputs) != len(c.PIs) {
		panic(fmt.Sprintf("circuit: Eval got %d inputs, want %d", len(inputs), len(c.PIs)))
	}
	vals := make([]bool, len(c.Gates))
	pi := 0
	for i, g := range c.Gates {
		switch g.Op {
		case Const0:
			vals[i] = false
		case Input:
			vals[i] = inputs[pi]
			pi++
		case Buf:
			vals[i] = c.sigVal(vals, g.In[0])
		case Not:
			vals[i] = !c.sigVal(vals, g.In[0])
		case And, Nand:
			v := true
			for _, s := range g.In {
				v = v && c.sigVal(vals, s)
			}
			if g.Op == Nand {
				v = !v
			}
			vals[i] = v
		case Or, Nor:
			v := false
			for _, s := range g.In {
				v = v || c.sigVal(vals, s)
			}
			if g.Op == Nor {
				v = !v
			}
			vals[i] = v
		case Xor, Xnor:
			v := false
			for _, s := range g.In {
				v = v != c.sigVal(vals, s)
			}
			if g.Op == Xnor {
				v = !v
			}
			vals[i] = v
		}
	}
	out := make([]bool, len(c.POs))
	for i, s := range c.POs {
		out[i] = c.sigVal(vals, s)
	}
	return out
}

func (c *Circuit) sigVal(vals []bool, s Signal) bool {
	v := vals[s.Gate()]
	if s.Inverted() {
		return !v
	}
	return v
}

// Eval64 evaluates 64 input vectors at once (bit-parallel simulation), used
// by tests and the rewriting validator for cheap equivalence spot-checks.
func (c *Circuit) Eval64(inputs []uint64) []uint64 {
	if len(inputs) != len(c.PIs) {
		panic(fmt.Sprintf("circuit: Eval64 got %d inputs, want %d", len(inputs), len(c.PIs)))
	}
	vals := make([]uint64, len(c.Gates))
	pi := 0
	sig := func(s Signal) uint64 {
		v := vals[s.Gate()]
		if s.Inverted() {
			return ^v
		}
		return v
	}
	for i, g := range c.Gates {
		switch g.Op {
		case Const0:
			vals[i] = 0
		case Input:
			vals[i] = inputs[pi]
			pi++
		case Buf:
			vals[i] = sig(g.In[0])
		case Not:
			vals[i] = ^sig(g.In[0])
		case And, Nand:
			v := ^uint64(0)
			for _, s := range g.In {
				v &= sig(s)
			}
			if g.Op == Nand {
				v = ^v
			}
			vals[i] = v
		case Or, Nor:
			v := uint64(0)
			for _, s := range g.In {
				v |= sig(s)
			}
			if g.Op == Nor {
				v = ^v
			}
			vals[i] = v
		case Xor, Xnor:
			v := uint64(0)
			for _, s := range g.In {
				v ^= sig(s)
			}
			if g.Op == Xnor {
				v = ^v
			}
			vals[i] = v
		}
	}
	out := make([]uint64, len(c.POs))
	for i, s := range c.POs {
		out[i] = sig(s)
	}
	return out
}
