package simplify

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/gen"
)

// outcomeHash is an FNV-1a hash of everything Simplify hands back: the
// verdict, the output clauses, the eliminations with their clauses, and
// the DRUP trace.
func outcomeHash(o *Outcome, proof []byte) uint64 {
	h := fnv.New64a()
	var buf []byte
	putClause := func(c []cnf.Lit) {
		buf = binary.AppendUvarint(buf, uint64(len(c)))
		for _, l := range c {
			buf = binary.AppendUvarint(buf, uint64(l))
		}
	}
	if o.Unsat {
		buf = append(buf, 1)
	}
	for _, c := range o.Formula.Clauses {
		putClause(c)
	}
	for _, e := range o.Elims {
		buf = binary.AppendUvarint(buf, uint64(e.V))
		buf = binary.AppendUvarint(buf, uint64(len(e.Clauses)))
		for _, c := range e.Clauses {
			putClause(c)
		}
	}
	h.Write(buf)
	h.Write(proof)
	return h.Sum64()
}

// TestGoldenOutcomes pins the preprocessor's exact output on generator
// instances of the planning, VLIW, pipeline and pigeonhole families under
// DefaultOptions. The expected values were recorded by running this test
// body at commit 7429e29, before elimination counted resolvents ahead of
// building them. A speed change must leave every value as it is.
func TestGoldenOutcomes(t *testing.T) {
	cases := []struct {
		inst                                        gen.Instance
		eliminated, subsumed, strengthened, clauses int
		hash                                        uint64
	}{
		{gen.Blocksworld(6, 0, 11), 1139, 0, 26, 15657, 0xe519558b089f509f},
		{gen.Blocksworld(6, 0, 12), 1328, 0, 27, 17192, 0x2d068f55b3756da6},
		{gen.VliwSat(5, 8, 13), 801, 104, 277, 2370, 0x4f67ec46d3e0edde},
		{gen.VliwSat(6, 8, 14), 949, 119, 329, 2854, 0x2143113aa1a96f54},
		{gen.PipeUnsat(3, 5, 15), 369, 44, 115, 973, 0x725177e2d178d495},
		{gen.Pigeonhole(7), 8, 0, 0, 196, 0xcf77fb341a038967},
	}
	for _, c := range cases {
		var proof bytes.Buffer
		opt := DefaultOptions()
		opt.Proof = &proof
		o := Simplify(c.inst.Formula, opt)
		got := [...]int{o.EliminatedVars, o.RemovedSubsumed, o.StrengthenedLits, len(o.Formula.Clauses)}
		want := [...]int{c.eliminated, c.subsumed, c.strengthened, c.clauses}
		if h := outcomeHash(o, proof.Bytes()); got != want || h != c.hash {
			t.Errorf("%s: eliminated, subsumed, strengthened, clauses = %v, hash %#x; want %v, hash %#x",
				c.inst.Name, got, h, want, c.hash)
		}
	}
}

// BenchmarkSimplifyLarge preprocesses one planning and one VLIW instance of
// the sizes in perfbench's simplify-dominated subset, generated outside
// the timer.
func BenchmarkSimplifyLarge(b *testing.B) {
	insts := []gen.Instance{gen.Blocksworld(6, 0, 21), gen.VliwSat(6, 8, 22)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, inst := range insts {
			Simplify(inst.Formula, DefaultOptions())
		}
	}
}
