package bench

import (
	"fmt"

	"berkmin/internal/gen"
)

// Scale selects instance sizes. The paper's originals took hours on 2002
// hardware; Small keeps every class in fractions of a second (for go test
// benchmarks), Medium in seconds (the satbench default), Large in minutes.
type Scale int

const (
	Small Scale = iota
	Medium
	Large
)

// ParseScale maps a -scale flag value (small, medium, large) to its Scale.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	}
	return Small, fmt.Errorf("unknown scale %q (small, medium, large)", name)
}

// Class is one benchmark class of the paper's evaluation.
type Class struct {
	Name      string
	Instances []gen.Instance
}

// Classes regenerates the paper's twelve benchmark classes (Tables 1, 2,
// 4, 5 run all of them; Tables 6 and 7 split them into "comparable" and
// "dominated") at the given scale.
func Classes(sc Scale) []Class {
	type sizes struct {
		holeFirst, holeCount int
		bwBlocks             int
		parVars              int
		sssStages, sssWidth  int
		pipeMin, pipeMax     int
		pipeWidth            int
		vliwLanes, vliwWidth int
		hanoiMax             int
		miterGates           int
		miterCount           int
	}
	var z sizes
	switch sc {
	case Small:
		z = sizes{holeFirst: 5, holeCount: 2, bwBlocks: 4, parVars: 32,
			sssStages: 2, sssWidth: 3, pipeMin: 2, pipeMax: 3, pipeWidth: 4,
			vliwLanes: 3, vliwWidth: 6, hanoiMax: 3, miterGates: 30, miterCount: 2}
	case Medium:
		z = sizes{holeFirst: 6, holeCount: 3, bwBlocks: 5, parVars: 48,
			sssStages: 2, sssWidth: 4, pipeMin: 3, pipeMax: 4, pipeWidth: 5,
			vliwLanes: 4, vliwWidth: 8, hanoiMax: 4, miterGates: 50, miterCount: 3}
	default:
		z = sizes{holeFirst: 7, holeCount: 3, bwBlocks: 6, parVars: 64,
			sssStages: 3, sssWidth: 5, pipeMin: 3, pipeMax: 5, pipeWidth: 6,
			vliwLanes: 5, vliwWidth: 8, hanoiMax: 5, miterGates: 80, miterCount: 4}
	}
	return []Class{
		{"Hole", gen.HoleSuite(z.holeFirst, z.holeCount)},
		{"Blocksworld", []gen.Instance{
			gen.Blocksworld(z.bwBlocks, 0, 1),
			gen.Blocksworld(z.bwBlocks, 0, 2),
			gen.Blocksworld(z.bwBlocks-1, 0, 3),
		}},
		{"Par16", gen.ParitySuite(z.parVars, z.parVars+z.parVars/8, 4, 10)},
		{"Sss1.0", gen.SssSuite(4, z.sssStages, z.sssWidth, 20)},
		{"Sss1.0a", gen.SssSuite(3, z.sssStages+1, z.sssWidth, 30)},
		{"Sss_sat1.0", gen.SssSatSuite(4, z.sssStages, z.sssWidth, 40)},
		{"Fvp_unsat1.0", gen.FvpUnsatSuite(z.pipeMin, z.pipeMin+1, z.pipeWidth, 50)},
		{"Vliw_sat1.0", gen.VliwSatSuite(3, z.vliwLanes, z.vliwWidth, 60)},
		{"Beijing", gen.BeijingSuite(70)},
		{"Hanoi", hanoiSuite(z.hanoiMax)},
		{"Miters", gen.MiterSuite(z.miterCount, z.miterGates, 80)},
		{"Fvp_unsat2.0", gen.FvpUnsatSuite(z.pipeMin+1, z.pipeMax, z.pipeWidth, 90)},
	}
}

func hanoiSuite(max int) []gen.Instance {
	var out []gen.Instance
	for d := 3; d <= max; d++ {
		out = append(out, gen.Hanoi(d))
	}
	return out
}

// HardInstances picks the five instruments of Table 3 (skin effect), in the
// paper's numbering: (1) a miter, (2) hanoi, (3) a Beijing-style arithmetic
// instance, (4) a pipe, (5) a vliw.
func HardInstances(sc Scale) []gen.Instance {
	switch sc {
	case Small:
		return []gen.Instance{
			gen.MiterUnsat(10, 40, 81),
			gen.Hanoi(4),
			gen.BuggyAdderMiter(7, 71),
			gen.PipeUnsat(3, 4, 51),
			gen.VliwSat(3, 6, 61),
		}
	case Medium:
		return []gen.Instance{
			gen.MiterUnsat(12, 60, 81),
			gen.Hanoi(5),
			gen.BuggyAdderMiter(8, 71),
			gen.PipeUnsat(4, 5, 51),
			gen.VliwSat(4, 8, 61),
		}
	default:
		return []gen.Instance{
			gen.MiterUnsat(14, 90, 81),
			gen.Hanoi(6),
			gen.BuggyAdderMiter(10, 71),
			gen.PipeUnsat(5, 6, 51),
			gen.VliwSat(5, 8, 61),
		}
	}
}

// DetailInstances picks the Table 8/9 instrument set: a vliw, two hanoi,
// and pipes of growing depth.
func DetailInstances(sc Scale) []gen.Instance {
	switch sc {
	case Small:
		return []gen.Instance{
			gen.VliwSat(3, 6, 62),
			gen.Hanoi(3),
			gen.Hanoi(4),
			gen.PipeUnsat(2, 4, 52),
			gen.PipeUnsat(3, 4, 52),
			gen.PipeUnsat(4, 4, 52),
		}
	case Medium:
		return []gen.Instance{
			gen.VliwSat(4, 8, 62),
			gen.Hanoi(4),
			gen.Hanoi(5),
			gen.PipeUnsat(3, 5, 52),
			gen.PipeUnsat(4, 5, 52),
			gen.PipeUnsat(5, 5, 52),
		}
	default:
		return []gen.Instance{
			gen.VliwSat(5, 8, 62),
			gen.Hanoi(5),
			gen.Hanoi(6),
			gen.PipeUnsat(4, 6, 52),
			gen.PipeUnsat(5, 6, 52),
			gen.PipeUnsat(6, 6, 52),
		}
	}
}

// CompetitionSet returns the Table 10 instance set. At Small scale the two
// deep-pipe instances are shallowed so the set stays benchmark-friendly;
// Medium and Large use the full regenerated suite.
func CompetitionSet(sc Scale) []gen.Instance {
	suite := gen.CompetitionSuite(100)
	if sc != Small {
		return suite
	}
	out := make([]gen.Instance, 0, len(suite))
	for _, inst := range suite {
		switch inst.Name {
		case "5pipe_w6":
			out = append(out, gen.PipeUnsat(3, 5, 102))
		case "6pipe_w6":
			out = append(out, gen.PipeUnsat(4, 5, 103))
		default:
			out = append(out, inst)
		}
	}
	return out
}

// ComparableClasses returns Table 6's class subset; DominatedClasses
// Table 7's.
func ComparableClasses(sc Scale) []Class {
	all := Classes(sc)
	names := map[string]bool{
		"Blocksworld": true, "Hole": true, "Par16": true,
		"Sss1.0": true, "Sss1.0a": true, "Sss_sat1.0": true,
		"Fvp_unsat1.0": true, "Vliw_sat1.0": true,
	}
	var out []Class
	for _, c := range all {
		if names[c.Name] {
			out = append(out, c)
		}
	}
	return out
}

// DominatedClasses returns the classes of Table 7, where the paper shows
// BerkMin dominating Chaff.
func DominatedClasses(sc Scale) []Class {
	all := Classes(sc)
	names := map[string]bool{
		"Beijing": true, "Miters": true, "Hanoi": true, "Fvp_unsat2.0": true,
	}
	var out []Class
	for _, c := range all {
		if names[c.Name] {
			out = append(out, c)
		}
	}
	return out
}
