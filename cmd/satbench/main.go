// Command satbench regenerates the paper's evaluation: every table of
// "BerkMin: A Fast and Robust Sat-Solver" (Tables 1-10) over the
// synthetically regenerated benchmark classes.
//
// Usage:
//
//	satbench -table 7                 # one table (medium scale)
//	satbench -table all -scale small  # everything, quickly
//	satbench -ablation all            # the extension ablations
//
// Absolute runtimes differ from the paper's 2002 hardware, so each table is
// printed with the paper's qualitative claim as a note beneath it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"berkmin/internal/bench"
	"berkmin/internal/prof"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		table        = flag.String("table", "all", "table number 1-10, or 'all'")
		ablation     = flag.String("ablation", "", "run an ablation instead: youngfrac, restart, aging, nbtwo, globalpick, minimize, phase, simplify, tiereddb, branching, or 'all'")
		scale        = flag.String("scale", "medium", "instance scale: small, medium, large")
		maxConflicts = flag.Uint64("max-conflicts", 2_000_000, "per-run conflict budget (0 = unlimited)")
		timeout      = flag.Duration("timeout", 2*time.Minute, "per-run wall-clock budget (0 = unlimited)")
		preprocess   = flag.Bool("simplify", true, "preprocess each instance before solving (the simplify ablation controls this per row itself)")
		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write a pprof heap profile (post-GC live set) to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stopProf()

	sc, err := bench.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	lim := bench.Limits{MaxConflicts: *maxConflicts, MaxTime: *timeout, Simplify: *preprocess}
	if *preprocess {
		// The paper's solvers did not preprocess; flag it so table numbers
		// are never mistaken for paper-exact conditions.
		fmt.Fprintln(os.Stderr, "c preprocessing enabled (-simplify); pass -simplify=false for the paper-exact pipeline")
	}

	if *ablation != "" {
		names := []string{*ablation}
		if *ablation == "all" {
			names = bench.AblationNames()
		}
		for _, name := range names {
			rep, err := bench.Ablation(name, sc, lim)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Println(rep.String())
		}
		return 0
	}

	var tables []int
	if *table == "all" {
		tables = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	} else {
		n, err := strconv.Atoi(*table)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -table %q\n", *table)
			return 1
		}
		tables = []int{n}
	}
	for _, n := range tables {
		rep, err := bench.Table(n, sc, lim)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(rep.String())
	}
	return 0
}
