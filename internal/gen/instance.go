// Package gen regenerates the paper's benchmark workload. Every class of
// Tables 1–10 — Hole, Par16, Hanoi, Blocksworld, Miters, Beijing, the
// Velev-style processor-verification suites (Sss, Fvp-unsat, Vliw-sat) and
// the SAT-2002 competition families — is produced synthetically with seeded
// generators, since the original benchmark files are not redistributable.
// Each generator's doc comment (or its file's header) says why its
// substitution preserves the structure the solver heuristics exploit.
package gen

import (
	"fmt"

	"berkmin/internal/cnf"
)

// Expected is the known satisfiability status of a generated instance.
type Expected int

const (
	// ExpUnknown marks instances whose status the generator cannot
	// guarantee.
	ExpUnknown Expected = iota
	// ExpSat marks instances satisfiable by construction.
	ExpSat
	// ExpUnsat marks instances unsatisfiable by construction.
	ExpUnsat
)

func (e Expected) String() string {
	switch e {
	case ExpSat:
		return "sat"
	case ExpUnsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Instance is a generated benchmark CNF with provenance.
type Instance struct {
	Name     string
	Family   string
	Formula  *cnf.Formula
	Expected Expected
}

func mkInstance(family, name string, f *cnf.Formula, exp Expected) Instance {
	f.Comments = append(f.Comments,
		fmt.Sprintf("family=%s name=%s expected=%s", family, name, exp))
	return Instance{Name: name, Family: family, Formula: f, Expected: exp}
}
