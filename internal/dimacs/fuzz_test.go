package dimacs

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzRead drives the parser with arbitrary input: it must never panic,
// every literal it returns must equal its token in the input, and whatever
// parses must survive a write/read round trip.
func FuzzRead(f *testing.F) {
	f.Add("p cnf 3 2\n1 -2 0\n2 3 0\n")
	f.Add("c comment\np cnf 1 1\n1 0")
	f.Add("1 2 0\n-1 0\n")
	f.Add("p cnf 0 0\n")
	f.Add("%\n0\n")
	f.Add("p cnf 2 1\n1 -1 0\n")
	f.Add("p cnf 2 1\n1073741824 -1 0\n")
	f.Add("p cnf 1 2\n4294967297 0\n-1 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		var got []int
		for _, c := range g.Clauses {
			for _, l := range c {
				got = append(got, l.Dimacs())
			}
		}
		if want := literalTokens(in); !slices.Equal(got, want) {
			t.Fatalf("literals %v, tokens %v", got, want)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("write failed on parsed formula: %v", err)
		}
		h, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if h.NumClauses() != g.NumClauses() {
			t.Fatalf("round trip clause count: %d vs %d", h.NumClauses(), g.NumClauses())
		}
	})
}

// literalTokens returns the nonzero clause tokens of input that Read
// accepted, in order: the values its literals must have.
func literalTokens(in string) []int {
	var out []int
	for _, line := range strings.Split(in, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.ContainsRune("cCpP", rune(line[0])) {
			continue
		}
		if line[0] == '%' {
			break
		}
		for _, tok := range strings.Fields(line) {
			if x, _ := strconv.Atoi(tok); x != 0 {
				out = append(out, x)
			}
		}
	}
	return out
}
