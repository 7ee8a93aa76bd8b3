package bench

import (
	"fmt"

	"berkmin/internal/core"
)

// Ablations beyond the paper's own tables: the design choices the paper
// fixes without a table (young fraction, restarts, aging, nb_two, the
// global pick) and the post-BerkMin extensions. Each runs a family of
// configurations over the hard-instance instrument set and reports
// per-config totals. A row whose options equal a core preset reads them
// from the preset table.

// preset is an ablation row named name that runs the core preset p.
func preset(name, p string) Config {
	return Config{Name: name, Opt: core.MustPreset(p)}
}

// ablationRow is one configuration under test with its own run limits
// (the simplify ablation toggles Limits.Simplify per row).
type ablationRow struct {
	cfg Config
	lim Limits
}

// ablationRows runs each row over the hard set and renders the shared
// ablation report shape.
func ablationRows(title string, rows []ablationRow, sc Scale, notes []string) *Report {
	insts := HardInstances(sc)
	rep := &Report{
		Title:  title,
		Header: []string{"Config", "Total (s)", "Conflicts", "Decisions", "Aborted"},
		Notes:  notes,
	}
	for _, row := range rows {
		var cr ClassResult
		for _, inst := range insts {
			r := RunInstance(inst, row.cfg, row.lim)
			cr.Time += r.Stats.Runtime
			cr.Conflicts += r.Stats.Conflicts
			cr.Decisions += r.Stats.Decisions
			if r.Aborted {
				cr.Aborted++
			}
			if r.Wrong {
				cr.Wrong++
			}
		}
		rep.Rows = append(rep.Rows, []string{row.cfg.Name, fmtSeconds(cr.Time),
			fmt.Sprintf("%d", cr.Conflicts), fmt.Sprintf("%d", cr.Decisions),
			fmt.Sprintf("%d", cr.Aborted)})
		if cr.Wrong > 0 {
			rep.Notes = append(rep.Notes,
				fmt.Sprintf("WARNING: %s produced %d wrong answers", row.cfg.Name, cr.Wrong))
		}
	}
	return rep
}

// ablationReport runs each configuration over the hard set under one
// shared Limits.
func ablationReport(title string, cfgs []Config, sc Scale, lim Limits, notes []string) *Report {
	rows := make([]ablationRow, len(cfgs))
	for i, cfg := range cfgs {
		rows[i] = ablationRow{cfg, lim}
	}
	return ablationRows(title, rows, sc, notes)
}

// AblationYoungFraction varies the young-zone size (paper: 15/16).
func AblationYoungFraction(sc Scale, lim Limits) *Report {
	var cfgs []Config
	for _, f := range []struct{ num, den int }{{1, 16}, {1, 4}, {1, 2}, {3, 4}, {15, 16}} {
		o := core.DefaultOptions()
		o.YoungFracNum, o.YoungFracDen = f.num, f.den
		cfgs = append(cfgs, Config{Name: fmt.Sprintf("young=%d/%d", f.num, f.den), Opt: o})
	}
	return ablationReport("Ablation — young-clause fraction (§8; paper uses 15/16)",
		cfgs, sc, lim, []string{"smaller young zones delete more aggressively"})
}

// AblationRestart compares restart policies (paper: fixed ≈550, 'close to
// random').
func AblationRestart(sc Scale, lim Limits) *Report {
	mk := func(name string, set func(*core.Options)) Config {
		o := core.DefaultOptions()
		set(&o)
		return Config{Name: name, Opt: o}
	}
	cfgs := []Config{
		preset("fixed550", "berkmin"),
		mk("fixed100", func(o *core.Options) { o.RestartFirst = 100; o.RestartJitter = 10 }),
		preset("geometric", "berkmin-geo"),
		mk("luby64", func(o *core.Options) { o.Restart = core.RestartLuby; o.RestartFirst = 64 }),
		mk("never", func(o *core.Options) { o.Restart = core.RestartNever }),
	}
	return ablationReport("Ablation — restart policy (the paper calls BerkMin's 'primitive, close to random')",
		cfgs, sc, lim, nil)
}

// AblationAging varies the activity decay.
func AblationAging(sc Scale, lim Limits) *Report {
	var cfgs []Config
	for _, a := range []struct {
		period  uint64
		divisor int64
	}{{100, 4}, {100, 2}, {25, 2}, {400, 16}, {1 << 62, 2}} {
		o := core.DefaultOptions()
		o.AgingPeriod = a.period
		o.AgingDivisor = a.divisor
		name := fmt.Sprintf("div%d/%d", a.divisor, a.period)
		if a.period == 1<<62 {
			name = "no-aging"
		}
		cfgs = append(cfgs, Config{Name: name, Opt: o})
	}
	return ablationReport("Ablation — activity aging (Chaff-inherited decay)",
		cfgs, sc, lim, nil)
}

// AblationNbTwo varies the nb_two threshold (paper: 100).
func AblationNbTwo(sc Scale, lim Limits) *Report {
	var cfgs []Config
	for _, th := range []int{1, 10, 100, 1000} {
		o := core.DefaultOptions()
		o.NbTwoThreshold = th
		cfgs = append(cfgs, Config{Name: fmt.Sprintf("nb_two<=%d", th), Opt: o})
	}
	return ablationReport("Ablation — nb_two threshold (§7; paper uses 100)",
		cfgs, sc, lim, nil)
}

// AblationGlobalPick compares the naive scan with strategy 3 (Remark 1).
func AblationGlobalPick(sc Scale, lim Limits) *Report {
	return ablationReport("Ablation — global most-active pick: naive scan vs strategy 3 (Remark 1)",
		[]Config{preset("naive", "berkmin"), preset("strategy3", "berkmin-s3")}, sc, lim, nil)
}

// AblationMinimize measures learnt-clause minimization (post-BerkMin).
func AblationMinimize(sc Scale, lim Limits) *Report {
	on := core.DefaultOptions()
	on.MinimizeLearnt = true
	return ablationReport("Ablation — learnt-clause minimization (post-BerkMin extension)",
		[]Config{preset("off", "berkmin"), {Name: "on", Opt: on}}, sc, lim, nil)
}

// AblationSimplify is the simplification ablation: the same
// BerkMin engine with preprocessing (internal/simplify) and inprocessing
// (core inprocess.go) toggled independently. Preprocessing is a Limits
// toggle (it runs outside the engine), so each row carries its own Limits.
func AblationSimplify(sc Scale, lim Limits) *Report {
	row := func(name, p string, simplify bool) ablationRow {
		l := lim
		l.Simplify = simplify
		return ablationRow{preset(name, p), l}
	}
	return ablationRows("Ablation — simplification: preprocessing and inprocessing (extension)",
		[]ablationRow{
			row("baseline", "berkmin", false),
			row("preprocess", "berkmin", true),
			row("inprocess", "berkmin-inp", false),
			row("pre+inprocess", "berkmin-inp", true),
		}, sc, []string{
			"preprocess: unit propagation + subsumption + self-subsuming resolution + bounded variable elimination before search",
			"inprocess: subsumption + strengthening + vivification at restart boundaries",
		})
}

// AblationTieredDB is the clause-database ablation: BerkMin's §8
// age/length/activity management against the glue-aware three-tier
// database, fixed against Luby restarts, and phase saving on/off — ending
// at the full TieredOptions configuration (tiers + Luby + postponement +
// phase saving). Every row runs the default preprocessing pipeline of the
// harness Limits, so the deltas isolate the in-search heuristics.
func AblationTieredDB(sc Scale, lim Limits) *Report {
	mk := func(name string, set func(*core.Options)) Config {
		o := core.DefaultOptions()
		set(&o)
		return Config{Name: name, Opt: o}
	}
	luby := func(o *core.Options) {
		o.Restart = core.RestartLuby
		o.RestartFirst = 100
		o.RestartJitter = 0
	}
	cfgs := []Config{
		preset("berkmin-db/fixed", "berkmin"),
		mk("berkmin-db/luby", luby),
		mk("tiered/fixed", func(o *core.Options) { o.Reduce = core.ReduceTiered }),
		mk("tiered/luby", func(o *core.Options) { o.Reduce = core.ReduceTiered; luby(o) }),
		mk("tiered/luby/phase", func(o *core.Options) {
			o.Reduce = core.ReduceTiered
			luby(o)
			o.PhaseSaving = true
		}),
		preset("tiered/luby/phase/postpone", "tiered"),
	}
	return ablationReport("Ablation — learnt-clause database tiers & restarts (extension; see README)",
		cfgs, sc, lim, []string{
			"tiered: CORE (glue<=2, permanent) / TIER2 (recently useful) / LOCAL (activity-sorted, halved)",
			"postpone: due restarts re-armed while recent avg glue < 0.8x lifetime avg",
		})
}

// AblationBranching is the branching-plane ablation: the paper's
// BerkMin heuristic (top-clause + responsible bumping) against its own
// strategy-3 variant, the chaff literal-counter heuristic with and without
// the heap-backed pick, and the two modern deciders (EVSIDS, LRB) — ending
// at the full ModernOptions profile (tiered DB + Luby + phase saving +
// EVSIDS). Everything but the decider is held at defaults, so the deltas
// isolate branching.
func AblationBranching(sc Scale, lim Limits) *Report {
	chaffHeap := core.ChaffOptions()
	chaffHeap.OptimizedGlobalPick = true
	cfgs := []Config{
		preset("berkmin", "berkmin"),
		preset("berkmin-s3", "berkmin-s3"),
		preset("chaff-scan", "chaff"),
		{Name: "chaff-heap", Opt: chaffHeap},
		preset("evsids", "evsids"),
		preset("lrb", "lrb"),
		preset("modern", "modern"),
	}
	return ablationReport("Ablation — branching heuristics: BerkMin vs EVSIDS vs LRB (extension; see README)",
		cfgs, sc, lim, []string{
			"chaff-heap: same heuristic as chaff-scan with the O(n) counter scan replaced by the activity heap",
			"modern: tiered DB + Luby + phase saving + EVSIDS (ModernOptions)",
		})
}

// AblationPhaseSaving measures phase saving against the paper's §7
// polarity heuristics.
func AblationPhaseSaving(sc Scale, lim Limits) *Report {
	on := core.DefaultOptions()
	on.PhaseSaving = true
	return ablationReport("Ablation — phase saving vs the paper's §7 polarity heuristics (post-BerkMin extension)",
		[]Config{preset("lit-activity+nb_two", "berkmin"), {Name: "phase-saving", Opt: on}}, sc, lim, nil)
}

// Ablation dispatches by name.
func Ablation(name string, sc Scale, lim Limits) (*Report, error) {
	switch name {
	case "youngfrac":
		return AblationYoungFraction(sc, lim), nil
	case "restart":
		return AblationRestart(sc, lim), nil
	case "aging":
		return AblationAging(sc, lim), nil
	case "nbtwo":
		return AblationNbTwo(sc, lim), nil
	case "globalpick":
		return AblationGlobalPick(sc, lim), nil
	case "minimize":
		return AblationMinimize(sc, lim), nil
	case "phase":
		return AblationPhaseSaving(sc, lim), nil
	case "simplify":
		return AblationSimplify(sc, lim), nil
	case "tiereddb":
		return AblationTieredDB(sc, lim), nil
	case "branching":
		return AblationBranching(sc, lim), nil
	default:
		return nil, fmt.Errorf("bench: unknown ablation %q (youngfrac, restart, aging, nbtwo, globalpick, minimize, phase, simplify, tiereddb, branching)", name)
	}
}

// AblationNames lists the available ablation experiments.
func AblationNames() []string {
	return []string{"youngfrac", "restart", "aging", "nbtwo", "globalpick", "minimize", "phase", "simplify", "tiereddb", "branching"}
}
