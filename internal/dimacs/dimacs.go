// Package dimacs reads and writes CNF formulas in the DIMACS CNF format,
// the exchange format used by every benchmark suite the paper evaluates on
// (the DIMACS suite, Velev's processor-verification suites and the SAT-2002
// competition set).
//
// The reader is tolerant in the ways real-world instances require: comments
// anywhere, clauses spanning multiple lines, several clauses per line,
// missing or inconsistent header counts (the actual counts win), and a
// trailing clause without the terminating 0.
package dimacs

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"berkmin/internal/cnf"
)

// maxLine bounds one input line, which may hold any number of clauses.
const maxLine = 64 << 20

// Read parses a DIMACS CNF stream.
func Read(r io.Reader) (*cnf.Formula, error) {
	f := cnf.New(0)
	sc := bufio.NewScanner(r)
	// Start from the scanner's small default buffer: it grows by doubling
	// only for long lines, so a small formula never pays for a large one.
	sc.Buffer(nil, maxLine)
	var cur cnf.Clause
	declaredVars := 0
	sawHeader := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch line[0] {
		case 'c', 'C':
			text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(line, "c"), "C"))
			if text != "" {
				f.Comments = append(f.Comments, text)
			}
			continue
		case 'p', 'P':
			fields := strings.Fields(line)
			if len(fields) < 4 || !strings.EqualFold(fields[1], "cnf") {
				return nil, fmt.Errorf("dimacs: line %d: malformed problem line %q", lineNo, line)
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("dimacs: line %d: bad variable count: %v", lineNo, err)
			}
			if v > cnf.MaxDimacsVar {
				return nil, fmt.Errorf("dimacs: line %d: variable count %d out of range (variables go up to %d)", lineNo, v, cnf.MaxDimacsVar)
			}
			if _, err := strconv.Atoi(fields[3]); err != nil {
				return nil, fmt.Errorf("dimacs: line %d: bad clause count: %v", lineNo, err)
			}
			declaredVars = v
			sawHeader = true
			continue
		case '%':
			// Some DIMACS-era files end with "% 0"; stop parsing there.
			goto done
		}
		for _, tok := range strings.Fields(line) {
			x, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("dimacs: line %d: bad literal %q", lineNo, tok)
			}
			if x == 0 {
				f.Add(cur)
				cur = nil
				continue
			}
			if !cnf.ValidDimacs(x) {
				return nil, fmt.Errorf("dimacs: line %d: literal %q out of range (variables go up to %d)", lineNo, tok, cnf.MaxDimacsVar)
			}
			cur = append(cur, cnf.FromDimacs(x))
		}
	}
done:
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dimacs: read: %w", err)
	}
	if len(cur) > 0 { // tolerate a missing final 0
		f.Add(cur)
	}
	if !sawHeader && f.NumClauses() == 0 {
		return nil, fmt.Errorf("dimacs: no problem line and no clauses")
	}
	if declaredVars > f.NumVars {
		f.NumVars = declaredVars
	}
	return f, nil
}

// ReadFile parses a DIMACS CNF file. Files ending in .gz are transparently
// decompressed (competition instances are usually shipped gzipped).
func ReadFile(path string) (*cnf.Formula, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(fh)
		if err != nil {
			return nil, fmt.Errorf("dimacs: gzip: %w", err)
		}
		defer gz.Close()
		return Read(gz)
	}
	return Read(fh)
}

// Write serializes the formula in DIMACS CNF format, including its comments.
func Write(w io.Writer, f *cnf.Formula) error {
	bw := bufio.NewWriter(w)
	for _, c := range f.Comments {
		if _, err := fmt.Fprintf(bw, "c %s\n", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, f.NumClauses()); err != nil {
		return err
	}
	for _, c := range f.Clauses {
		for _, l := range c {
			if _, err := fmt.Fprintf(bw, "%d ", l.Dimacs()); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("0\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile serializes the formula to a DIMACS CNF file.
func WriteFile(path string, f *cnf.Formula) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(fh, f); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// WriteModel serializes a satisfying assignment in the SAT-competition
// "v" line format (model[i] is the value of variable i; model[0] unused).
func WriteModel(w io.Writer, model []bool) error {
	bw := bufio.NewWriter(w)
	col := 0
	for v := 1; v < len(model); v++ {
		x := v
		if !model[v] {
			x = -v
		}
		s := strconv.Itoa(x)
		if col == 0 {
			if _, err := bw.WriteString("v"); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString(" " + s); err != nil {
			return err
		}
		col += len(s) + 1
		if col > 70 {
			if _, err := bw.WriteString("\n"); err != nil {
				return err
			}
			col = 0
		}
	}
	if col != 0 {
		if _, err := bw.WriteString(" 0\n"); err != nil {
			return err
		}
	} else {
		if _, err := bw.WriteString("v 0\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
