package circuit

import (
	"fmt"

	"berkmin/internal/cnf"
)

// SeqCircuit is a synchronous sequential circuit described by its
// combinational next-state/property logic:
//
//   - Comb's primary inputs are ordered [free inputs..., state bits...],
//   - Comb's primary outputs are ordered [next-state bits..., property],
//   - Init gives the reset values of the state bits.
//
// The single property output must be 1 in every reachable state for the
// design to be safe. Unroll produces the bounded-model-checking CNF that
// several of the paper's Table 10 competition families (bmc2, fifo, ip,
// w08, f2clk) consist of.
type SeqCircuit struct {
	Comb      *Circuit
	FreeIns   int // number of non-state primary inputs
	StateBits int
	Init      []bool // len == StateBits
	Name      string
}

// Validate checks the interface wiring.
func (sc *SeqCircuit) Validate() error {
	if sc.Comb.NumInputs() != sc.FreeIns+sc.StateBits {
		return fmt.Errorf("circuit: seq %q: comb has %d inputs, want %d free + %d state",
			sc.Name, sc.Comb.NumInputs(), sc.FreeIns, sc.StateBits)
	}
	if sc.Comb.NumOutputs() != sc.StateBits+1 {
		return fmt.Errorf("circuit: seq %q: comb has %d outputs, want %d next-state + property",
			sc.Name, sc.Comb.NumOutputs(), sc.StateBits)
	}
	if len(sc.Init) != sc.StateBits {
		return fmt.Errorf("circuit: seq %q: init vector has %d bits, want %d",
			sc.Name, len(sc.Init), sc.StateBits)
	}
	return nil
}

// Unroll builds the BMC formula for k transition steps: frames 0..k are
// stamped, state bits are tied frame to frame, frame 0 is constrained to
// the initial state, and the formula asserts that the property fails in at
// least one frame. The CNF is satisfiable iff a counterexample of length
// <= k exists.
func (sc *SeqCircuit) Unroll(k int) (*cnf.Formula, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	// Stamp the frames with the streaming Unroller's stamper; u.bad holds
	// the per-frame property-failure literals.
	b := cnf.NewBuilder()
	u := &Unroller{sc: sc, b: b}
	u.initFrame0()
	for t := 0; t <= k; t++ {
		u.Step()
	}
	b.Clause(u.bad...)
	f := b.Formula()
	f.Comments = append(f.Comments, fmt.Sprintf("bmc: %s unrolled %d steps", sc.Name, k))
	return f, nil
}

// Unroller streams a circuit's BMC encoding one frame at a time, for
// incremental solvers: each Step stamps the next transition frame and
// returns its property-failure literal, and Delta hands out the clauses
// added since the last take — the caller feeds those to a long-lived
// solver instead of re-encoding frames 0..k at every depth. Obtain one
// with SeqCircuit.Unroller.
type Unroller struct {
	sc    *SeqCircuit
	b     *cnf.Builder
	state []cnf.Var // boundary state variables of the next frame to stamp
	bad   []cnf.Lit // per-frame property-failure literals, indexed by depth
	taken int       // clauses already handed out by Delta
}

// Unroller returns a streaming unroller positioned before frame 0.
func (sc *SeqCircuit) Unroller() (*Unroller, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	u := &Unroller{sc: sc, b: cnf.NewBuilder()}
	u.initFrame0()
	return u, nil
}

// initFrame0 allocates the frame-0 boundary state constrained to the
// initial values.
func (u *Unroller) initFrame0() {
	u.state = make([]cnf.Var, u.sc.StateBits)
	for i := range u.state {
		u.state[i] = u.b.Fresh()
		u.b.Unit(cnf.MkLit(u.state[i], !u.sc.Init[i]))
	}
}

// Depth returns how many frames have been stamped (the next Step encodes
// frame Depth()).
func (u *Unroller) Depth() int { return len(u.bad) }

// NumVars returns the variable count of the encoding so far.
func (u *Unroller) NumVars() int { return u.b.NumVars() }

// Step stamps the next transition frame — the combinational logic, the
// property failure, and the materialized next-frame state boundary — and
// returns the new frame's failure literal (true iff the property is
// violated in that frame).
func (u *Unroller) Step() cnf.Lit {
	sc := u.sc
	// Pin the state inputs of this frame to the boundary variables.
	pins := make(map[int]cnf.Var, sc.StateBits)
	for i := 0; i < sc.StateBits; i++ {
		pins[sc.Comb.PIs[sc.FreeIns+i]] = u.state[i]
	}
	enc := Tseitin(u.b, sc.Comb, pins)
	// Property of this frame; collect its failure.
	prop := enc.OutputLit(sc.Comb, sc.StateBits)
	fail := cnf.PosLit(u.b.Fresh())
	// fail ↔ ¬prop
	u.b.Iff(fail, prop.Not())
	u.bad = append(u.bad, fail)
	// Materialize boundary variables equal to the next-state outputs so
	// the next frame can pin to plain variables. (The one-shot unroll
	// skipped this for the last frame; streaming cannot know which frame
	// is last, and the extra Iff per state bit is negligible.)
	for i := 0; i < sc.StateBits; i++ {
		v := u.b.Fresh()
		u.b.Iff(cnf.PosLit(v), enc.OutputLit(sc.Comb, i))
		u.state[i] = v
	}
	return fail
}

// Delta returns the clauses stamped since the previous Delta call (or
// since construction), shared with the underlying builder — read-only,
// valid until the next Step.
func (u *Unroller) Delta() []cnf.Clause {
	cl := u.b.Building().Clauses
	d := cl[u.taken:len(cl):len(cl)]
	u.taken = len(cl)
	return d
}

// Counter builds an n-bit wrap-around counter that increments every cycle
// from zero. The property asserts the count never reaches the given target
// value — so BMC at depth >= target finds the (real) counterexample, and
// shallower unrollings are UNSAT. This mirrors the shape of the "ip"/"bmc"
// competition families where hardness is controlled by unrolling depth.
func Counter(n int, target uint64) *SeqCircuit {
	c := New()
	state := c.AddInputs("s", n)
	// next = state + 1 (ripple increment).
	carry := c.True()
	next := make([]Signal, n)
	for i := 0; i < n; i++ {
		next[i] = c.XorGate(state[i], carry)
		carry = c.AndGate(state[i], carry)
	}
	for i := 0; i < n; i++ {
		c.AddOutput(fmt.Sprintf("n%d", i), next[i])
	}
	// Property: count != target.
	c.AddOutput("prop", EqualConst(c, state, target).Invert())
	return &SeqCircuit{
		Comb:      c,
		FreeIns:   0,
		StateBits: n,
		Init:      make([]bool, n),
		Name:      fmt.Sprintf("counter%d", n),
	}
}

// FIFO builds a FIFO controller with 2^ptrBits slots, modelled by wrapping
// read/write pointers and a count register. Free inputs: push, pop. The
// safe property is "the occupancy counter never exceeds the capacity". If
// buggy is true, the full-guard on push is dropped, so pushes overflow the
// counter and the property fails after capacity+1 pushes — the satisfiable
// variant ("fifo8" style instances).
func FIFO(ptrBits int, buggy bool) *SeqCircuit {
	n := ptrBits + 1 // occupancy counter bits (0..capacity)
	capacity := uint64(1) << uint(ptrBits)
	c := New()
	push := c.AddInput("push")
	pop := c.AddInput("pop")
	count := c.AddInputs("cnt", n)

	full := EqualConst(c, count, capacity)
	empty := EqualConst(c, count, 0)

	doPush := c.AndGate(push, full.Invert())
	if buggy {
		doPush = push // missing full-check: the defect
	}
	doPop := c.AndGate(pop, empty.Invert())

	inc := c.AndGate(doPush, doPop.Invert())
	dec := c.AndGate(doPop, doPush.Invert())

	// next = count + inc - dec  (two's-complement ripple: add inc, subtract dec)
	plus := make([]Signal, n)
	carry := c.False()
	for i := 0; i < n; i++ {
		addend := c.False()
		if i == 0 {
			addend = inc
		}
		plus[i], carry = fullAdder(c, count[i], addend, carry)
	}
	next := make([]Signal, n)
	borrow := c.False()
	for i := 0; i < n; i++ {
		sub := c.False()
		if i == 0 {
			sub = dec
		}
		d := c.XorGate(plus[i], c.XorGate(sub, borrow))
		borrow = c.OrGate(
			c.AndGate(plus[i].Invert(), c.OrGate(sub, borrow)),
			c.AndGate(sub, borrow),
		)
		next[i] = d
	}
	for i := 0; i < n; i++ {
		c.AddOutput(fmt.Sprintf("n%d", i), next[i])
	}
	// Property: count <= capacity, i.e. not (count > capacity). With n =
	// ptrBits+1 bits, count > capacity means the top bit is set along with
	// any lower bit.
	over := c.AndGate(count[n-1], c.OrGate(count[:n-1]...))
	c.AddOutput("prop", over.Invert())
	name := "fifo"
	if buggy {
		name = "fifo-buggy"
	}
	return &SeqCircuit{
		Comb:      c,
		FreeIns:   2,
		StateBits: n,
		Init:      make([]bool, n),
		Name:      fmt.Sprintf("%s%d", name, capacity),
	}
}

// Arbiter builds a round-robin two-client arbiter. Free inputs: req0,
// req1. State: grant0, grant1, turn. The safe property is mutual
// exclusion (never both grants). If buggy, the arbiter grants both
// requests when both arrive on the client-0 turn.
func Arbiter(buggy bool) *SeqCircuit {
	c := New()
	req0 := c.AddInput("req0")
	req1 := c.AddInput("req1")
	g0 := c.AddInput("g0")
	g1 := c.AddInput("g1")
	turn := c.AddInput("turn")

	both := c.AndGate(req0, req1)
	only0 := c.AndGate(req0, req1.Invert())
	only1 := c.AndGate(req1, req0.Invert())

	n0 := c.OrGate(only0, c.AndGate(both, turn.Invert()))
	var n1 Signal
	if buggy {
		// Defect: when both request on turn 0, client 1 is also granted.
		n1 = c.OrGate(only1, both)
	} else {
		n1 = c.OrGate(only1, c.AndGate(both, turn))
	}
	// Alternate the turn whenever both request.
	nturn := c.XorGate(turn, both)

	c.AddOutput("ng0", n0)
	c.AddOutput("ng1", n1)
	c.AddOutput("nturn", nturn)
	c.AddOutput("prop", c.AndGate(g0, g1).Invert())
	name := "arbiter"
	if buggy {
		name = "arbiter-buggy"
	}
	return &SeqCircuit{
		Comb:      c,
		FreeIns:   2,
		StateBits: 3,
		Init:      []bool{false, false, false},
		Name:      name,
	}
}
