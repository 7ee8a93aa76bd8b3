// Command satgen writes the repository's benchmark families to DIMACS .cnf
// files, so they can be fed to any SAT solver.
//
// Usage:
//
//	satgen -family hole -n 8 -out hole8.cnf
//	satgen -family hanoi -n 5 -out hanoi5.cnf
//	satgen -family class -class Miters -scale medium -out dir/
//
// With -family class, every instance of the named benchmark class (as used
// by the paper's tables) is written into the -out directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"berkmin"
	"berkmin/internal/bench"
	"berkmin/internal/dimacs"
	"berkmin/internal/gen"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		family = flag.String("family", "", "instance family: hole, parity, hanoi, blocksworld, queens, random, miter, miter-sat, adder, adder-buggy, mult, coloring, coloring-unsat, tseitin, tseitin-unsat, sss, pipe, vliw, competition, class")
		n      = flag.Int("n", 6, "primary size parameter (holes, disks, blocks, queens, bits, stages...)")
		m      = flag.Int("m", 0, "secondary size parameter (clauses, width, gates...; family-specific default when 0)")
		seed   = flag.Int64("seed", 1, "generator seed")
		out    = flag.String("out", "", "output file (or directory for -family class/competition)")
		class  = flag.String("class", "", "benchmark class name for -family class (e.g. Miters, Hanoi, Beijing)")
		scale  = flag.String("scale", "medium", "class scale: small, medium, large")
	)
	flag.Parse()
	if *family == "" || *out == "" {
		flag.Usage()
		return 1
	}

	writeOne := func(inst gen.Instance) int {
		if err := dimacs.WriteFile(*out, inst.Formula); err != nil {
			fmt.Fprintf(os.Stderr, "write: %v\n", err)
			return 1
		}
		v, c, _ := inst.Formula.Stats()
		fmt.Printf("wrote %s: %s (%d vars, %d clauses, expected %s)\n",
			*out, inst.Name, v, c, inst.Expected)
		return 0
	}

	switch *family {
	case "hole":
		return writeOne(berkmin.Pigeonhole(*n))
	case "parity":
		eqs := *m
		if eqs == 0 {
			eqs = *n + *n/8
		}
		return writeOne(berkmin.Parity(*n, eqs, *seed))
	case "hanoi":
		return writeOne(berkmin.Hanoi(*n))
	case "blocksworld":
		return writeOne(berkmin.Blocksworld(*n, *m, *seed))
	case "queens":
		return writeOne(berkmin.Queens(*n))
	case "random":
		cl := *m
		if cl == 0 {
			cl = int(float64(*n) * 4.26)
		}
		return writeOne(berkmin.RandomKSat(*n, cl, 3, *seed))
	case "miter":
		g := *m
		if g == 0 {
			g = 6 * *n
		}
		return writeOne(berkmin.MiterUnsat(*n, g, *seed))
	case "miter-sat":
		g := *m
		if g == 0 {
			g = 6 * *n
		}
		return writeOne(berkmin.MiterSat(*n, g, *seed))
	case "adder":
		return writeOne(berkmin.AdderMiter(*n, int(*seed)))
	case "adder-buggy":
		return writeOne(berkmin.BuggyAdderMiter(*n, *seed))
	case "mult":
		return writeOne(berkmin.MultiplierMiter(*n, *seed))
	case "coloring":
		k := *m
		if k == 0 {
			k = 3
		}
		return writeOne(berkmin.GraphColoring(*n, k, 0.4, true, *seed))
	case "coloring-unsat":
		k := *m
		if k == 0 {
			k = 3
		}
		return writeOne(berkmin.GraphColoring(*n, k, 0.2, false, *seed))
	case "tseitin":
		return writeOne(berkmin.TseitinGraph(*n, false, *seed))
	case "tseitin-unsat":
		return writeOne(berkmin.TseitinGraph(*n, true, *seed))
	case "sss":
		w := *m
		if w == 0 {
			w = 4
		}
		return writeOne(berkmin.PipelineVerification(*n, w, false, *seed))
	case "pipe":
		w := *m
		if w == 0 {
			w = 5
		}
		return writeOne(berkmin.PipeUnsat(*n, w, *seed))
	case "vliw":
		w := *m
		if w == 0 {
			w = 8
		}
		return writeOne(berkmin.VliwSat(*n, w, *seed))
	case "competition":
		return writeSet(gen.CompetitionSuite(*seed), *out)
	case "class":
		sc, err := bench.ParseScale(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		classes := bench.Classes(sc)
		for _, cl := range classes {
			if cl.Name == *class {
				return writeSet(cl.Instances, *out)
			}
		}
		fmt.Fprintln(os.Stderr, unknownClass(*class, classes))
		return 1
	default:
		fmt.Fprintf(os.Stderr, "unknown family %q\n", *family)
		return 1
	}
}

// unknownClass is the error for a -class name that is not one of classes.
func unknownClass(name string, classes []bench.Class) string {
	names := make([]string, len(classes))
	for i, cl := range classes {
		names[i] = cl.Name
	}
	return fmt.Sprintf("unknown class %q; the classes are %s", name, strings.Join(names, ", "))
}

func writeSet(insts []gen.Instance, dir string) int {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "mkdir: %v\n", err)
		return 1
	}
	for _, inst := range insts {
		path := filepath.Join(dir, inst.Name+".cnf")
		if err := dimacs.WriteFile(path, inst.Formula); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
			return 1
		}
		v, c, _ := inst.Formula.Stats()
		fmt.Printf("wrote %s (%d vars, %d clauses, expected %s)\n", path, v, c, inst.Expected)
	}
	return 0
}
