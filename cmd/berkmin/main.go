// Command berkmin is a DIMACS CNF solver in the SAT-competition calling
// convention: it prints "s SATISFIABLE"/"s UNSATISFIABLE"/"s UNKNOWN" plus
// optional "v" model lines, and exits with code 10 (SAT), 20 (UNSAT) or 0
// (unknown).
//
// Usage:
//
//	berkmin [flags] [file.cnf]        (stdin when no file is given)
//
// The -config flag selects a configuration by its name in the core preset
// table (core.Presets): the paper's configurations — berkmin (default),
// less-sensitivity, less-mobility, limited-keeping, chaff, limmat and the
// branch-selection ablations sat-top, unsat-top, take-0, take-1, take-rand
// — the modern extensions tiered, evsids, lrb and modern, and the other
// members of the -jobs portfolio.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"berkmin"
	"berkmin/internal/core"
	"berkmin/internal/prof"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		configName   = flag.String("config", "berkmin", "solver configuration ("+presetNames()+")")
		maxConflicts = flag.Uint64("max-conflicts", 0, "abort after this many conflicts (0 = unlimited)")
		timeout      = flag.Duration("timeout", 0, "abort after this wall-clock time (0 = unlimited)")
		seed         = flag.Uint64("seed", 1, "PRNG seed (deterministic reruns)")
		jobs         = flag.Int("jobs", 1, "run a portfolio of N diversified solvers in parallel (first answer wins; learnt clauses are shared)")
		cubeMode     = flag.Bool("cube", false, "solve by cube-and-conquer: a lookahead cuber splits the instance into a few cubes per worker, work-stealing workers conquer them in parallel")
		cubeJobs     = flag.Int("cube-jobs", 0, "conquer workers for -cube (0 = GOMAXPROCS)")
		cubeMax      = flag.Int("cube-max", 0, "bound on the number of cubes for -cube (0 = a few per worker)")
		noModel      = flag.Bool("no-model", false, "suppress the v-lines on SAT")
		showStats    = flag.Bool("stats", false, "print search statistics to stderr")
		proofPath    = flag.String("proof", "", "write a DRUP proof to this file")
		minimize     = flag.Bool("minimize", false, "enable learnt-clause minimization (extension)")
		preprocess   = flag.Bool("simplify", true, "preprocess before solving: unit propagation, subsumption, self-subsuming resolution, variable elimination (extension)")
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

	opt, ok := core.Preset(*configName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown config %q (%s)\n", *configName, presetNames())
		return 1
	}
	opt.MaxConflicts = *maxConflicts
	opt.MaxTime = *timeout
	opt.Seed = *seed
	// -minimize adds to a preset; it never clears what the preset sets.
	if *minimize {
		opt.MinimizeLearnt = true
	}

	var f *berkmin.Formula
	switch flag.NArg() {
	case 0:
		f, err = berkmin.ReadDimacs(bufio.NewReader(os.Stdin))
	case 1:
		f, err = berkmin.ReadDimacsFile(flag.Arg(0))
	default:
		fmt.Fprintln(os.Stderr, "usage: berkmin [flags] [file.cnf]")
		return 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "parse error: %v\n", err)
		return 1
	}

	if *jobs > 1 && *cubeMode {
		fmt.Fprintln(os.Stderr, "-cube and -jobs are mutually exclusive (use -cube-jobs to size the conquer pool)")
		return 1
	}
	if *jobs > 1 && *proofPath != "" {
		fmt.Fprintln(os.Stderr, "-jobs and -proof are mutually exclusive (a portfolio winner has no single DRUP trace)")
		return 1
	}
	proof, closeProof, err := openProof(*proofPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "proof file: %v\n", err)
		return 1
	}

	// Cube-and-conquer mode: -cube splits the instance and conquers the
	// cubes with homogeneous workers, so unlike the portfolio it composes
	// with the flags that pick one configuration — and with -proof, since
	// an all-UNSAT run stitches one checkable DRUP trace.
	if *cubeMode {
		copt := berkmin.CubeOptions{
			Jobs:     *cubeJobs,
			MaxCubes: *cubeMax,
			Config:   opt,
			MaxTime:  *timeout,
			Seed:     *seed,
			Simplify: *preprocess,
			Proof:    proof,
		}
		start := time.Now()
		res := berkmin.SolveCubes(f, copt)
		if err := closeProof(); err != nil {
			fmt.Fprintf(os.Stderr, "proof file: %v\n", err)
			return 1
		}
		if *showStats {
			fmt.Fprintf(os.Stderr, "c cube jobs=%d cubes=%d refuted=%d solved=%d steals=%d\n",
				*cubeJobs, res.Cubes, res.Refuted, res.Solved, res.Steals)
			fmt.Fprintf(os.Stderr, "c conflicts=%d shared=%d stop=%v\n",
				res.Stats.Conflicts, res.Stats.ExportedClauses, res.Stop)
			fmt.Fprintf(os.Stderr, "c time=%v\n", time.Since(start))
		}
		return report(res.Result, noModel)
	}

	// Portfolio mode: -jobs N runs N diversified configurations in
	// parallel; the single-solver flags that pick one configuration or
	// attach a proof (rejected above) do not apply, so reject them
	// explicitly rather than silently ignoring what the user asked for.
	if *jobs > 1 {
		conflicting := ""
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "config", "minimize":
				conflicting = f.Name
			}
		})
		if conflicting != "" {
			fmt.Fprintf(os.Stderr, "-jobs and -%s are mutually exclusive (the portfolio picks its own diversified configurations)\n", conflicting)
			return 1
		}
		start := time.Now()
		res := berkmin.SolveParallel(f, berkmin.ParallelOptions{
			Jobs:         *jobs,
			MaxConflicts: *maxConflicts,
			MaxTime:      *timeout,
			Seed:         *seed,
			Simplify:     *preprocess,
		})
		if *showStats {
			st := res.Stats
			fmt.Fprintf(os.Stderr, "c portfolio jobs=%d winner=%q stop=%v\n", *jobs, res.Winner, res.Stop)
			fmt.Fprintf(os.Stderr, "c winner: decisions=%d conflicts=%d exported=%d imported=%d\n",
				st.Decisions, st.Conflicts, st.ExportedClauses, st.ImportedClauses)
			fmt.Fprintf(os.Stderr, "c time=%v\n", time.Since(start))
		}
		return report(res.Result, noModel)
	}

	s := berkmin.NewWithOptions(opt)
	// Proof logging composes with -simplify: the preprocessor's additions
	// and deletions lead the trace, so it verifies against the original
	// formula.
	s.SetProofWriter(proof)
	if *preprocess {
		so := berkmin.DefaultSimplifyOptions()
		s.SetSimplify(&so)
	}
	start := time.Now()
	s.AddFormula(f)
	res := s.Solve()
	if err := closeProof(); err != nil {
		fmt.Fprintf(os.Stderr, "proof file: %v\n", err)
		return 1
	}

	if *showStats {
		st := res.Stats
		if o := s.SimplifyOutcome(); o != nil {
			fmt.Fprintf(os.Stderr, "c simplify: %d subsumed, %d strengthened lits, %d vars eliminated, %d units\n",
				o.RemovedSubsumed, o.StrengthenedLits, o.EliminatedVars, o.PropagatedUnits)
		}
		fmt.Fprintf(os.Stderr, "c decisions=%d conflicts=%d propagations=%d restarts=%d\n",
			st.Decisions, st.Conflicts, st.Propagations, st.Restarts)
		fmt.Fprintf(os.Stderr, "c learnt=%d deleted=%d db-ratio=%.2f peak-ratio=%.2f\n",
			st.LearntTotal, st.DeletedTotal, st.DatabaseRatio(), st.PeakRatio())
		if st.InprocessPasses > 0 {
			fmt.Fprintf(os.Stderr, "c inprocess: %d passes, %d subsumed, %d strengthened lits, %d vivified\n",
				st.InprocessPasses, st.SubsumedClauses, st.StrengthenedLits, st.VivifiedClauses)
		}
		if st.LearntTotal > 0 {
			fmt.Fprintf(os.Stderr, "c glue: avg=%.2f tiers core=%d tier2=%d local=%d promoted=%d demoted=%d postponed-restarts=%d\n",
				float64(st.GlueSum)/float64(st.LearntTotal),
				st.CoreLearnts, st.Tier2Learnts, st.LocalLearnts,
				st.TierPromotions, st.TierDemotions, st.PostponedRestarts)
		}
		fmt.Fprintf(os.Stderr, "c time=%v\n", time.Since(start))
	}

	return report(res, noModel)
}

// openProof creates the -proof file behind a buffer; with no path the
// writer is nil. The returned close flushes and closes the file and
// reports the first error. Both proof paths call it before printing the
// verdict, so a proof that never reached the file fails the run instead
// of backing an "s UNSATISFIABLE" line.
func openProof(path string) (io.Writer, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	return bw, func() error {
		err := bw.Flush()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

// presetNames lists the -config names in table order.
func presetNames() string {
	var names []string
	for _, p := range core.Presets() {
		names = append(names, p.Name)
	}
	return strings.Join(names, ", ")
}

// report prints the verdict in the SAT-competition convention and returns
// the matching exit code — shared by the sequential and portfolio paths.
// Models arrive already mapped back to the original variables.
func report(res berkmin.Result, noModel *bool) int {
	switch res.Status {
	case berkmin.StatusSat:
		fmt.Println("s SATISFIABLE")
		if !*noModel {
			out := bufio.NewWriter(os.Stdout)
			berkmin.WriteModel(out, res.Model)
			out.Flush()
		}
		return 10
	case berkmin.StatusUnsat:
		fmt.Println("s UNSATISFIABLE")
		return 20
	default:
		fmt.Println("s UNKNOWN")
		return 0
	}
}
