package dimacs

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"berkmin/internal/cnf"
)

func TestReadBasic(t *testing.T) {
	in := `c a comment
p cnf 3 2
1 -2 0
2 3 0
`
	f, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || f.NumClauses() != 2 {
		t.Fatalf("got vars=%d clauses=%d", f.NumVars, f.NumClauses())
	}
	if len(f.Comments) != 1 || f.Comments[0] != "a comment" {
		t.Fatalf("comments = %v", f.Comments)
	}
	want := cnf.NewClause(1, -2)
	if !reflect.DeepEqual(f.Clauses[0], want) {
		t.Fatalf("clause 0 = %v", f.Clauses[0])
	}
}

func TestReadMultiLineClauses(t *testing.T) {
	in := "p cnf 4 2\n1 2\n3 0 4\n-1 0\n"
	f, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 2 {
		t.Fatalf("clauses = %d", f.NumClauses())
	}
	if len(f.Clauses[0]) != 3 || len(f.Clauses[1]) != 2 {
		t.Fatalf("clause shapes: %v", f.Clauses)
	}
}

func TestReadMissingFinalZero(t *testing.T) {
	f, err := Read(strings.NewReader("p cnf 2 1\n1 2"))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 1 || len(f.Clauses[0]) != 2 {
		t.Fatalf("got %v", f.Clauses)
	}
}

func TestReadHeaderGrowsVars(t *testing.T) {
	// Header declares more variables than appear in clauses.
	f, err := Read(strings.NewReader("p cnf 10 1\n1 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 10 {
		t.Fatalf("vars = %d", f.NumVars)
	}
	// Clauses mention more variables than the header declares: actual wins.
	f, err = Read(strings.NewReader("p cnf 1 1\n5 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 5 {
		t.Fatalf("vars = %d", f.NumVars)
	}
}

func TestReadPercentTerminator(t *testing.T) {
	f, err := Read(strings.NewReader("p cnf 2 1\n1 -2 0\n%\n0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 1 {
		t.Fatalf("clauses = %d", f.NumClauses())
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"p cnf x 2\n1 0\n",
		"p cnf 2\n1 0\n",
		"p dnf 2 2\n1 0\n",
		"p cnf 2 2\n1 z 0\n",
		"",
		// Variables beyond cnf.MaxDimacsVar: they used to wrap onto a
		// smaller variable, or past the int32 range and crash the solver.
		"p cnf 2 1\n1073741824 -1 0\n",
		"p cnf 1 2\n4294967297 0\n-1 0\n",
		"-1073741824 0\n",
		"p cnf 4294967297 0\n",
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

// TestReadLargestVariable: cnf.MaxDimacsVar itself still parses.
func TestReadLargestVariable(t *testing.T) {
	f, err := Read(strings.NewReader("1073741823 -1073741823 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Clauses[0][1].Dimacs(); got != -1073741823 {
		t.Fatalf("largest variable read as %d", got)
	}
}

func TestNoHeaderButClauses(t *testing.T) {
	// Tolerated: some tools emit headerless CNF.
	f, err := Read(strings.NewReader("1 -2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 2 || f.NumClauses() != 1 {
		t.Fatalf("got vars=%d clauses=%d", f.NumVars, f.NumClauses())
	}
}

func TestWriteRead_RoundTrip(t *testing.T) {
	f := cnf.New(4)
	f.Comments = append(f.Comments, "generated for test")
	f.AddClause(1, -2, 3)
	f.AddClause(-4)
	f.AddClause(2, 4)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVars != f.NumVars || !reflect.DeepEqual(g.Clauses, f.Clauses) {
		t.Fatalf("round trip mismatch:\n%v\n%v", f.Clauses, g.Clauses)
	}
	if !reflect.DeepEqual(g.Comments, f.Comments) {
		t.Fatalf("comments mismatch: %v", g.Comments)
	}
}

func TestRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		n := 1 + rng.Intn(20)
		m := rng.Intn(30)
		f := cnf.New(n)
		for i := 0; i < m; i++ {
			k := 1 + rng.Intn(5)
			c := make(cnf.Clause, 0, k)
			for j := 0; j < k; j++ {
				v := cnf.Var(1 + rng.Intn(n))
				c = append(c, cnf.MkLit(v, rng.Intn(2) == 0))
			}
			f.Add(c)
		}
		var buf bytes.Buffer
		if err := Write(&buf, f); err != nil {
			t.Fatal(err)
		}
		g, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumVars != f.NumVars {
			t.Fatalf("vars mismatch %d != %d", g.NumVars, f.NumVars)
		}
		if m == 0 {
			if g.NumClauses() != 0 {
				t.Fatalf("clauses mismatch")
			}
			continue
		}
		if !reflect.DeepEqual(g.Clauses, f.Clauses) {
			t.Fatalf("clauses mismatch at iter %d", iter)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.cnf")
	f := cnf.New(2)
	f.AddClause(1, 2)
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumClauses() != 1 {
		t.Fatalf("clauses = %d", g.NumClauses())
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.cnf")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestReadGzippedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.cnf.gz")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(fh)
	if _, err := gz.Write([]byte("p cnf 3 2\n1 -2 0\n2 3 0\n")); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || f.NumClauses() != 2 {
		t.Fatalf("gz round trip: vars=%d clauses=%d", f.NumVars, f.NumClauses())
	}
	// A corrupt .gz must error, not crash.
	bad := filepath.Join(dir, "bad.cnf.gz")
	if err := os.WriteFile(bad, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Fatal("corrupt gzip accepted")
	}
}

func TestWriteModel(t *testing.T) {
	var buf bytes.Buffer
	model := []bool{false, true, false, true}
	if err := WriteModel(&buf, model); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "1") || !strings.Contains(out, "-2") || !strings.Contains(out, "3") {
		t.Fatalf("model output %q", out)
	}
	if !strings.HasSuffix(strings.TrimSpace(out), "0") {
		t.Fatalf("model output must end with 0: %q", out)
	}
	// Long models wrap lines.
	long := make([]bool, 200)
	buf.Reset()
	if err := WriteModel(&buf, long); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines < 2 {
		t.Fatalf("expected wrapped lines, got %d", lines)
	}
}

// TestReadLongLine: the scanner starts small and grows, so a single clause
// line of a few MiB still parses.
func TestReadLongLine(t *testing.T) {
	const n = 700000 // about 4.8 MB of literals on one line
	var b strings.Builder
	b.WriteString("p cnf 700000 1\n")
	for v := 1; v <= n; v++ {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(' ')
	}
	b.WriteString("0\n")
	if b.Len() < 4<<20 {
		t.Fatalf("line is only %d bytes", b.Len())
	}
	f, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 1 || len(f.Clauses[0]) != n {
		t.Fatalf("got %d clauses, first of %d literals", f.NumClauses(), len(f.Clauses[0]))
	}
}

// BenchmarkReadSmall reads a formula of a few KB, the size of most
// one-shot queries, to keep the per-call fixed cost in view.
func BenchmarkReadSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := cnf.New(100)
	for i := 0; i < 400; i++ {
		f.Add(cnf.NewClause(rng.Intn(100)+1, -(rng.Intn(100) + 1), rng.Intn(100)+1))
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		b.Fatal(err)
	}
	text := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
