package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"berkmin/internal/core"
)

func TestConfigByNameCoversEveryConfiguration(t *testing.T) {
	names := presetNames()
	for _, p := range core.Presets() {
		opt, ok := core.Preset(p.Name)
		if !ok || opt != p.Opt {
			t.Errorf("config %q missing", p.Name)
		}
		if !strings.Contains(names, p.Name) {
			t.Errorf("config %q missing from the -config help", p.Name)
		}
	}
	if _, ok := core.Preset("bogus"); ok {
		t.Error("unknown config accepted")
	}
}

func TestConfigsDiffer(t *testing.T) {
	a, _ := core.Preset("berkmin")
	b, _ := core.Preset("chaff")
	if a.Decision == b.Decision && a.Reduce == b.Reduce {
		t.Error("berkmin and chaff configs should differ")
	}
}

// TestProofWriteFailureFailsRun runs the CLI with -proof on /dev/full, on
// the sequential and the cube path: the proof cannot be written, so the run
// must exit 1 with an error and print no verdict.
func TestProofWriteFailureFailsRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	// Pigeonhole 4 into 3: UNSAT, so the run writes a proof.
	var cnf strings.Builder
	fmt.Fprintln(&cnf, "p cnf 12 22")
	v := func(p, h int) int { return p*3 + h + 1 }
	for p := 0; p < 4; p++ {
		fmt.Fprintf(&cnf, "%d %d %d 0\n", v(p, 0), v(p, 1), v(p, 2))
	}
	for h := 0; h < 3; h++ {
		for p := 0; p < 4; p++ {
			for q := p + 1; q < 4; q++ {
				fmt.Fprintf(&cnf, "-%d -%d 0\n", v(p, h), v(q, h))
			}
		}
	}
	path := filepath.Join(t.TempDir(), "hole4.cnf")
	if err := os.WriteFile(path, []byte(cnf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-proof", "/dev/full", path},
		{"-cube", "-cube-jobs", "2", "-proof", "/dev/full", path},
	} {
		code, stdout := runCLI(t, args)
		if code != 1 || strings.Contains(stdout, "s ") {
			t.Errorf("berkmin %v: exit %d, stdout %q; want exit 1 and no verdict", args, code, stdout)
		}
	}
}

// runCLI runs the command's run with args on a fresh flag set and returns
// its exit code and what it printed to stdout.
func runCLI(t *testing.T, args []string) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldArgs, oldFlags, oldStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = oldArgs, oldFlags, oldStdout }()
	os.Args = append([]string{"berkmin"}, args...)
	flag.CommandLine = flag.NewFlagSet("berkmin", flag.ContinueOnError)
	os.Stdout = w
	code := run()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}
