package drup_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"berkmin/internal/drup"
)

// FuzzParseProof drives the proof parser with arbitrary input: it must
// never panic, and every step it returns must survive a round trip through
// Log, the writer every proof producer emits through.
func FuzzParseProof(f *testing.F) {
	f.Add("1 2 0\nd 1 2 0\n0\n")
	f.Add("c comment\n-3 0\n")
	f.Add("1 2\n")
	f.Add("1073741824 0\n")
	f.Add("d -4294967297 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		steps, err := drup.ParseProof(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		log := drup.NewLog(&buf)
		for _, st := range steps {
			if st.Delete {
				log.Delete(st.Lits)
			} else {
				log.Add(st.Lits)
			}
		}
		again, err := drup.ParseProof(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(again) != len(steps) {
			t.Fatalf("round trip steps: %d vs %d", len(again), len(steps))
		}
		for i := range steps {
			if again[i].Delete != steps[i].Delete || !slices.Equal(again[i].Lits, steps[i].Lits) {
				t.Fatalf("step %d: %+v became %+v", i, steps[i], again[i])
			}
		}
	})
}
