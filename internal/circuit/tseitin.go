package circuit

import (
	"berkmin/internal/cnf"
)

// Encoding maps a circuit into CNF via the Tseitin transformation: every
// gate output gets a propositional variable and a constant-size clause set
// asserting the gate's function. GateVar[i] is the variable of gate i;
// outputs are not constrained — callers add unit clauses over OutputLit.
type Encoding struct {
	GateVar []cnf.Var
	builder *cnf.Builder
}

// Tseitin encodes the circuit into the builder, returning the mapping.
// Multiple circuits can be encoded into one builder (the miter construction
// does exactly that, sharing input variables through pins).
//
// pins optionally pre-assigns gate variables: pins[gateIndex] = variable.
// Gates absent from pins get fresh variables. This is how frames of a BMC
// unrolling tie registers together and how a miter shares primary inputs.
func Tseitin(b *cnf.Builder, c *Circuit, pins map[int]cnf.Var) Encoding {
	enc := Encoding{GateVar: make([]cnf.Var, len(c.Gates)), builder: b}
	for i := range c.Gates {
		if v, ok := pins[i]; ok {
			enc.GateVar[i] = v
		} else {
			enc.GateVar[i] = b.Fresh()
		}
	}
	lit := func(s Signal) cnf.Lit {
		return cnf.MkLit(enc.GateVar[s.Gate()], s.Inverted())
	}
	for i, g := range c.Gates {
		out := cnf.PosLit(enc.GateVar[i])
		switch g.Op {
		case Const0:
			b.Unit(out.Not())
		case Input:
			// unconstrained
		case Buf:
			b.Iff(out, lit(g.In[0]))
		case Not:
			b.Iff(out, lit(g.In[0]).Not())
		case And, Nand:
			y := out
			if g.Op == Nand {
				y = out.Not()
			}
			// y ↔ AND(in...): (¬y ∨ ini) for all i; (y ∨ ¬in1 ∨ ... ∨ ¬inn)
			long := make([]cnf.Lit, 0, len(g.In)+1)
			long = append(long, y)
			for _, s := range g.In {
				b.Clause(y.Not(), lit(s))
				long = append(long, lit(s).Not())
			}
			b.Clause(long...)
		case Or, Nor:
			y := out
			if g.Op == Nor {
				y = out.Not()
			}
			// y ↔ OR(in...): (y ∨ ¬ini) for all i; (¬y ∨ in1 ∨ ... ∨ inn)
			long := make([]cnf.Lit, 0, len(g.In)+1)
			long = append(long, y.Not())
			for _, s := range g.In {
				b.Clause(y, lit(s).Not())
				long = append(long, lit(s))
			}
			b.Clause(long...)
		case Xor, Xnor:
			// Chain binary XOR definitions; n-ary XOR explodes otherwise.
			y := out
			if g.Op == Xnor {
				y = out.Not()
			}
			acc := lit(g.In[0])
			for k := 1; k < len(g.In); k++ {
				next := acc
				if k == len(g.In)-1 {
					next = y
				} else {
					next = cnf.PosLit(b.Fresh())
				}
				x := lit(g.In[k])
				// next ↔ acc ⊕ x
				b.Clause(next.Not(), acc, x)
				b.Clause(next.Not(), acc.Not(), x.Not())
				b.Clause(next, acc.Not(), x)
				b.Clause(next, acc, x.Not())
				acc = next
			}
			if len(g.In) == 1 {
				b.Iff(y, acc)
			}
		}
	}
	return enc
}

// OutputLit returns the CNF literal of the i-th primary output.
func (e Encoding) OutputLit(c *Circuit, i int) cnf.Lit {
	s := c.POs[i]
	return cnf.MkLit(e.GateVar[s.Gate()], s.Inverted())
}

// ToCNF encodes the circuit alone and asserts that every primary output is
// true. This is the common "is this condition reachable" query.
func ToCNF(c *Circuit) (*cnf.Formula, Encoding) {
	b := cnf.NewBuilder()
	enc := Tseitin(b, c, nil)
	for i := range c.POs {
		b.Unit(enc.OutputLit(c, i))
	}
	return b.Formula(), enc
}

// InputVars returns the CNF variables of the primary inputs, in order.
func (e Encoding) InputVars(c *Circuit) []cnf.Var {
	out := make([]cnf.Var, len(c.PIs))
	for i, g := range c.PIs {
		out[i] = e.GateVar[g]
	}
	return out
}
