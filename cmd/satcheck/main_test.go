package main

import (
	"strconv"
	"strings"
	"testing"
)

func TestParseModelVLines(t *testing.T) {
	in := "c comment\ns SATISFIABLE\nv 1 -2 3\nv -4 0\n"
	model, err := parseModel(strings.NewReader(in), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, false, true, false}
	for v := 1; v <= 4; v++ {
		if model[v] != want[v] {
			t.Fatalf("model[%d] = %v", v, model[v])
		}
	}
}

func TestParseModelBareLiterals(t *testing.T) {
	model, err := parseModel(strings.NewReader("1 -2 0"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !model[1] || model[2] {
		t.Fatalf("model = %v", model)
	}
}

// TestParseModelRejectsOutOfRange checks that the model is bounded by the
// formula: a literal above the header's variable count, or beyond what a
// DIMACS literal can name, is an error naming that literal.
func TestParseModelRejectsOutOfRange(t *testing.T) {
	for _, in := range []string{"v 7 0\n", "v 1 -3 0\n", "v 4294967297 0\n", "v -9223372036854775808 0\n"} {
		tok := strings.Fields(in)[len(strings.Fields(in))-2]
		_, err := parseModel(strings.NewReader(in), 2)
		if err == nil || !strings.Contains(err.Error(), tok) {
			t.Errorf("parseModel(%q) error = %v, want one naming %s", in, err, tok)
		}
	}
}

func TestParseModelRejectsGarbage(t *testing.T) {
	if _, err := parseModel(strings.NewReader("v one 0\n"), 2); err == nil {
		t.Fatal("garbage accepted")
	}
}

// FuzzParseModel checks the model parser on arbitrary input: it never
// panics, an accepted model has exactly numVars+1 entries, and each
// variable's value is that of its last literal in the input.
func FuzzParseModel(f *testing.F) {
	f.Add("c comment\ns SATISFIABLE\nv 1 -2 3\nv -4 0\n", uint16(4))
	f.Add("1 -2 0", uint16(2))
	f.Add("v 4294967297 0\n", uint16(2))
	f.Add("v 1 -1 +2 0\n", uint16(3))
	f.Fuzz(func(t *testing.T, in string, n uint16) {
		numVars := int(n % 1024)
		model, err := parseModel(strings.NewReader(in), numVars)
		if err != nil {
			return
		}
		if len(model) != numVars+1 {
			t.Fatalf("model has %d entries for %d variables", len(model), numVars)
		}
		want := make(map[int]bool)
		for _, line := range strings.Split(in, "\n") {
			line = strings.TrimSpace(line)
			if line == "" || line[0] == 'c' || line[0] == 's' {
				continue
			}
			for _, tok := range strings.Fields(strings.TrimPrefix(line, "v")) {
				if x, _ := strconv.Atoi(tok); x != 0 {
					want[max(x, -x)] = x > 0
				}
			}
		}
		for v, val := range want {
			if model[v] != val {
				t.Fatalf("variable %d = %v, want %v", v, model[v], val)
			}
		}
	})
}
