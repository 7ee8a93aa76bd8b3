// Command satcheck independently validates solver output: either a model
// ("v ..." lines, SAT-competition format) or a DRUP unsatisfiability proof
// against the original DIMACS CNF.
//
// Usage:
//
//	berkmin -proof p.drup f.cnf > out.txt ; satcheck -proof p.drup f.cnf
//	berkmin f.cnf > model.txt            ; satcheck -model model.txt f.cnf
//
// Exit code 0 = verified, 1 = rejected or error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"berkmin"
	"berkmin/internal/cnf"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		modelPath = flag.String("model", "", "model file with 'v' lines (or raw literals) to verify")
		proofPath = flag.String("proof", "", "DRUP proof file to verify")
	)
	flag.Parse()
	if flag.NArg() != 1 || (*modelPath == "") == (*proofPath == "") {
		fmt.Fprintln(os.Stderr, "usage: satcheck (-model m.txt | -proof p.drup) file.cnf")
		return 1
	}
	f, err := berkmin.ReadDimacsFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "parse error: %v\n", err)
		return 1
	}

	if *modelPath != "" {
		mf, err := os.Open(*modelPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "model file: %v\n", err)
			return 1
		}
		defer mf.Close()
		model, err := parseModel(mf, f.NumVars)
		if err != nil {
			fmt.Fprintf(os.Stderr, "model parse: %v\n", err)
			return 1
		}
		if !berkmin.Verify(f, model) {
			fmt.Println("REJECTED: model does not satisfy the formula")
			return 1
		}
		fmt.Println("VERIFIED: model satisfies all clauses")
		return 0
	}

	pf, err := os.Open(*proofPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "proof file: %v\n", err)
		return 1
	}
	defer pf.Close()
	res, err := berkmin.CheckDRUP(f, bufio.NewReader(pf))
	if err != nil {
		fmt.Printf("REJECTED: %v\n", err)
		return 1
	}
	fmt.Printf("VERIFIED: UNSAT proof checked (%d additions, %d deletions)\n",
		res.Additions, res.Deletions)
	return 0
}

// parseModel reads "v" lines (or bare literal lines) into a model array
// of numVars+1 entries. Lines beginning with "s" or "c" are ignored and
// 0s are skipped. A literal naming a variable outside the formula is
// rejected; unmentioned variables default to false, since solvers may omit
// don't-cares.
func parseModel(r io.Reader, numVars int) ([]bool, error) {
	model := make([]bool, numVars+1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == 'c' || line[0] == 's' {
			continue
		}
		line = strings.TrimPrefix(line, "v")
		for _, tok := range strings.Fields(line) {
			x, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("bad literal %q", tok)
			}
			if x == 0 {
				continue
			}
			v := max(x, -x)
			if !cnf.ValidDimacs(x) || v > numVars {
				return nil, fmt.Errorf("literal %q is outside the formula's %d variables", tok, numVars)
			}
			model[v] = x > 0
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return model, nil
}
