package core

import (
	"fmt"
	"slices"
	"time"
)

// DecisionMode selects how the next branching variable is chosen.
type DecisionMode int

const (
	// DecideBerkMinTop is BerkMin's rule (§5): pick the most active free
	// variable of the current top clause (the unsatisfied conflict clause
	// closest to the top of the stack); if every conflict clause is
	// satisfied, fall back to the globally most active free variable.
	DecideBerkMinTop DecisionMode = iota
	// DecideGlobalMostActive is the Less_mobility ablation of Table 2:
	// always pick the globally most active free variable (activities are
	// still computed the BerkMin way).
	DecideGlobalMostActive
	// DecideChaffLiteral is Chaff's VSIDS rule: pick the free literal with
	// the highest (aged) conflict-clause occurrence counter; the literal
	// choice fixes the polarity.
	DecideChaffLiteral
	// DecideEvsids is exponential VSIDS (MiniSat lineage, post-BerkMin):
	// float activities where the bump increment grows by 1/0.95 per
	// conflict, rescaled near overflow; selection is always heap-based.
	// Polarity uses the saved phase when PhaseSaving is on, else nb_two.
	DecideEvsids
	// DecideLrb is learning-rate branching (MapleSAT lineage, post-BerkMin):
	// each variable's activity is an exponential moving average of the
	// fraction of conflicts it participated in while assigned, with an
	// annealed step (0.4 → 0.06) and a per-conflict locality fade of
	// unassigned variables (×0.95). Polarity as DecideEvsids.
	DecideLrb
)

// PolarityMode selects which branch of the chosen variable is explored first
// when the decision was made on the current top clause (§7, Table 4).
type PolarityMode int

const (
	// PolarityLitActivity is BerkMin's database-symmetrization rule: explore
	// first the branch whose future conflict clauses contain the literal
	// that has so far appeared in fewer conflict clauses.
	PolarityLitActivity PolarityMode = iota
	// PolaritySatTop always satisfies the current top clause.
	PolaritySatTop
	// PolarityUnsatTop always falsifies the chosen literal of the top clause.
	PolarityUnsatTop
	// PolarityTake0 always assigns 0.
	PolarityTake0
	// PolarityTake1 always assigns 1.
	PolarityTake1
	// PolarityTakeRand assigns a random value.
	PolarityTakeRand
)

// SensitivityMode selects how variable activities are updated on a conflict
// (§4, Table 1).
type SensitivityMode int

const (
	// SensitivityResponsible is BerkMin's rule: bump var_activity(x) once
	// per occurrence of a literal of x in every clause responsible for the
	// conflict (every antecedent used in the resolution chain).
	SensitivityResponsible SensitivityMode = iota
	// SensitivityConflictClause is the Less_sensitivity ablation (Chaff's
	// rule): bump only the variables of the final learnt clause, by 1.
	SensitivityConflictClause
)

// ReduceMode selects the clause-database management procedure run at each
// restart (§8, Table 5).
type ReduceMode int

const (
	// ReduceBerkMin keeps clauses by age (young = within 15/16 of the stack
	// top), length and activity; the old-clause activity threshold grows
	// over time; the topmost clause is never removed.
	ReduceBerkMin ReduceMode = iota
	// ReduceLimitedKeeping simulates GRASP/Chaff database management:
	// remove every learnt clause longer than LimitedKeepLen.
	ReduceLimitedKeeping
	// ReduceNone never removes learnt clauses (memory permitting).
	ReduceNone
	// ReduceTiered is the glue-aware three-tier database (post-BerkMin;
	// Glucose/CaDiCaL lineage): CORE clauses (glue ≤ 2, and every binary)
	// are never deleted, TIER2 clauses (glue ≤ 6) are demoted to LOCAL
	// after a full inter-cleaning interval without participating in a
	// conflict, and the LOCAL tier is activity-sorted with its worst half
	// deleted once the database outgrows a growing threshold (2000 learnt
	// clauses, +300 per halving).
	ReduceTiered
)

// RestartPolicy selects when the current search tree is abandoned.
type RestartPolicy int

const (
	// RestartFixed restarts every RestartFirst conflicts, with an optional
	// random jitter of ±RestartJitter (the paper calls BerkMin's strategy
	// "primitive, close to random").
	RestartFixed RestartPolicy = iota
	// RestartGeometric multiplies the interval by geometricFactor (1.5)
	// each time.
	RestartGeometric
	// RestartLuby follows the Luby sequence scaled by RestartFirst.
	RestartLuby
	// RestartNever disables restarts (and therefore database reduction).
	RestartNever
)

// Options configures a Solver. The zero value is not useful; start from
// DefaultOptions (BerkMin56 as described in the paper) or one of the presets
// and override fields as needed.
type Options struct {
	// Decision making.
	Decision            DecisionMode
	Polarity            PolarityMode
	Sensitivity         SensitivityMode
	NbTwoThreshold      int  // stop computing nb_two above this value (§7; 100)
	OptimizedGlobalPick bool // strategy 3 of BerkMin561 (Remark 1): heap-based global pick

	// Activity aging (Chaff's "aging" of counters, inherited by BerkMin).
	// DecideEvsids and DecideLrb have their own fixed decay schedules
	// (evsids.go, lrb.go) and ignore these.
	AgingPeriod  uint64 // conflicts between decays
	AgingDivisor int64  // counters are divided by this at each decay

	// Restarts.
	Restart       RestartPolicy
	RestartFirst  int // initial conflict interval
	RestartJitter int // ± uniform jitter on the interval (fixed policy)

	// Clause database management. The §8 length and activity limits and
	// the tier glue bounds are fixed constants (reduce.go).
	Reduce         ReduceMode
	YoungFracNum   int // a clause is young iff distance-from-top < Num/Den · stack size
	YoungFracDen   int
	LimitedKeepLen int // ReduceLimitedKeeping: remove clauses longer than this
	MarkPeriod     int // permanently protect one clause every N restarts (0 = off; the paper's partial anti-looping scheme protects only the topmost clause)

	// RestartPostpone delays a due restart (any policy) while the search is
	// learning better-than-usual clauses: when the average glue of the last
	// 50 learnt clauses is below 0.8 times the lifetime average, the
	// conflict counter is re-armed instead of restarting (the inverse of
	// Glucose's forced-restart rule; restart.go).
	RestartPostpone bool

	// Learnt-clause minimization (post-BerkMin technique; off by default,
	// available as an extension ablation).
	MinimizeLearnt bool

	// InprocessPeriod enables inprocessing (post-BerkMin techniques; see
	// inprocess.go): every InprocessPeriod restarts — immediately after §8
	// database management, while the solver sits at decision level 0 —
	// subsumption, self-subsuming resolution and bounded vivification run
	// directly over the clause arena. 0 (the default) disables them.
	InprocessPeriod int

	// PhaseSaving remembers each variable's last assigned polarity and
	// reuses it on decisions (a post-BerkMin technique from RSAT-era
	// solvers; off by default — it replaces the paper's §7 polarity
	// heuristics when enabled, so it exists purely as an ablation).
	PhaseSaving bool

	// QueryDecay, in (0, 1), fades heuristic state between the calls of an
	// incremental query stream: at the start of every solve after the
	// first, the installed decider's activities are decayed once more
	// (EVSIDS/LRB scale by this factor; BerkMin applies one extra aging
	// step) so state survives across queries without earlier queries'
	// bumps compounding forever. 0 (the default) disables the hook
	// entirely — heuristic state carries over untouched, exactly as
	// before this option existed.
	QueryDecay float64

	// Resource limits (0 = unlimited). Exceeding a limit yields StatusUnknown.
	MaxConflicts uint64
	MaxTime      time.Duration

	// Seed for the solver's deterministic PRNG (tie-breaking, Take_rand,
	// restart jitter). The same seed reproduces the same run exactly.
	Seed uint64
}

// DefaultOptions returns BerkMin as the paper describes it (the BerkMin56
// configuration): responsible-clause sensitivity, top-clause mobility,
// lit-activity branch selection, age/length/activity database management,
// fixed-interval restarts.
func DefaultOptions() Options {
	return Options{
		Decision:       DecideBerkMinTop,
		Polarity:       PolarityLitActivity,
		Sensitivity:    SensitivityResponsible,
		NbTwoThreshold: 100,
		AgingPeriod:    100,
		AgingDivisor:   4,
		Restart:        RestartFixed,
		RestartFirst:   550,
		RestartJitter:  50,
		Reduce:         ReduceBerkMin,
		YoungFracNum:   15,
		YoungFracDen:   16,
		LimitedKeepLen: 42,
		Seed:           1,
	}
}

// EnableInprocessing turns on inprocessing (subsumption, self-subsuming
// resolution, vivification): one pass every 4 restarts.
func (o *Options) EnableInprocessing() {
	o.InprocessPeriod = 4
}

// InprocessingOptions is BerkMin with arena-native inprocessing enabled —
// the extension configuration measured by the `satbench -ablation simplify`
// experiment.
func InprocessingOptions() Options {
	o := DefaultOptions()
	o.EnableInprocessing()
	return o
}

// TieredOptions is the modern clause-database configuration (extension
// measured by `satbench -ablation tiereddb`): the glue-aware three-tier
// learnt database, Luby restarts with glue-based postponement, and phase
// saving over the paper's §7 polarity heuristics. The rest of the engine
// (decision making, activities, aging) stays BerkMin's.
func TieredOptions() Options {
	o := DefaultOptions()
	o.Reduce = ReduceTiered
	o.Restart = RestartLuby
	o.RestartFirst = 100
	o.RestartJitter = 0
	o.RestartPostpone = true
	o.PhaseSaving = true
	return o
}

// LessSensitivityOptions is Table 1's ablation: Chaff-style variable
// activity (only the learnt clause's variables are bumped).
func LessSensitivityOptions() Options {
	o := DefaultOptions()
	o.Sensitivity = SensitivityConflictClause
	return o
}

// LessMobilityOptions is Table 2's ablation: the globally most active free
// variable is always chosen, ignoring the conflict-clause stack.
func LessMobilityOptions() Options {
	o := DefaultOptions()
	o.Decision = DecideGlobalMostActive
	return o
}

// BranchOptions returns BerkMin with the given branch-selection heuristic
// (Table 4's ablations).
func BranchOptions(p PolarityMode) Options {
	o := DefaultOptions()
	o.Polarity = p
	return o
}

// LimitedKeepingOptions is Table 5's ablation: GRASP-style database
// management that removes every clause longer than 42 literals.
func LimitedKeepingOptions() Options {
	o := DefaultOptions()
	o.Reduce = ReduceLimitedKeeping
	return o
}

// ChaffOptions approximates zChaff: VSIDS literal counters incremented on
// learnt-clause literals, halved every 100 conflicts, GRASP-like database
// management, fixed restarts. The paper describes these heuristics in §3–§5.
func ChaffOptions() Options {
	o := DefaultOptions()
	o.Decision = DecideChaffLiteral
	o.Sensitivity = SensitivityConflictClause
	o.AgingDivisor = 2
	o.AgingPeriod = 100
	o.Reduce = ReduceLimitedKeeping
	o.LimitedKeepLen = 100
	o.Restart = RestartFixed
	o.RestartFirst = 700
	o.RestartJitter = 0
	return o
}

// LimmatOptions approximates limmat, the third solver of Table 10: a
// Chaff-family solver with its own decay and restart constants.
func LimmatOptions() Options {
	o := ChaffOptions()
	o.AgingPeriod = 50
	o.Restart = RestartGeometric
	o.RestartFirst = 100
	o.LimitedKeepLen = 60
	return o
}

// EvsidsOptions is BerkMin's engine branching with exponential VSIDS
// (DecideEvsids) and phase saving — the MiniSat-style configuration the
// `satbench -ablation branching` experiment measures against the paper's
// heuristics.
func EvsidsOptions() Options {
	o := DefaultOptions()
	o.Decision = DecideEvsids
	o.PhaseSaving = true
	return o
}

// LrbOptions is the engine with learning-rate branching (DecideLrb) and
// phase saving.
func LrbOptions() Options {
	o := DefaultOptions()
	o.Decision = DecideLrb
	o.PhaseSaving = true
	return o
}

// ModernOptions stacks the post-BerkMin extensions into one configuration:
// the glue-aware three-tier database, Luby restarts with postponement,
// phase saving (all from TieredOptions) and EVSIDS branching.
func ModernOptions() Options {
	o := TieredOptions()
	o.Decision = DecideEvsids
	return o
}

// IncrementalOptions tunes the engine for IC3/BMC-style query streams —
// many small assumption-laden solves against one mostly-stable formula:
// the modern profile plus between-query heuristic decay, so activities
// track the stream instead of fossilizing around the first queries.
func IncrementalOptions() Options {
	o := ModernOptions()
	o.QueryDecay = 0.7
	return o
}

// NamedOptions is one entry of the preset table.
type NamedOptions struct {
	Name string
	Opt  Options
}

// presets names every configuration the commands and the portfolio use,
// one name per distinct option set: berkmin -config accepts each name,
// the portfolio ladder and the satbench ablations pick members by name.
var presets = []NamedOptions{
	{"berkmin", DefaultOptions()},
	{"less-sensitivity", LessSensitivityOptions()},
	{"less-mobility", LessMobilityOptions()},
	{"limited-keeping", LimitedKeepingOptions()},
	{"chaff", ChaffOptions()},
	{"limmat", LimmatOptions()},
	{"tiered", TieredOptions()},
	{"evsids", EvsidsOptions()},
	{"lrb", LrbOptions()},
	{"modern", ModernOptions()},
	{"sat-top", BranchOptions(PolaritySatTop)},
	{"unsat-top", BranchOptions(PolarityUnsatTop)},
	{"take-0", BranchOptions(PolarityTake0)},
	{"take-1", BranchOptions(PolarityTake1)},
	{"take-rand", BranchOptions(PolarityTakeRand)},
	{"berkmin-s3", with(DefaultOptions(), func(o *Options) { o.OptimizedGlobalPick = true })},
	{"tiered-s3", with(TieredOptions(), func(o *Options) { o.OptimizedGlobalPick = true })},
	{"berkmin-luby", with(DefaultOptions(), func(o *Options) { o.Restart, o.RestartFirst = RestartLuby, 100 })},
	{"berkmin-geo", with(DefaultOptions(), func(o *Options) { o.Restart, o.RestartFirst = RestartGeometric, 100 })},
	{"chaff-phase", with(ChaffOptions(), func(o *Options) { o.PhaseSaving = true })},
	{"berkmin-inp", InprocessingOptions()},
}

// with returns o changed by set.
func with(o Options, set func(*Options)) Options {
	set(&o)
	return o
}

// Presets returns the preset table in its fixed order.
func Presets() []NamedOptions { return slices.Clone(presets) }

// Preset returns the named preset's Options; ok is false for an unknown
// name.
func Preset(name string) (opt Options, ok bool) {
	for _, p := range presets {
		if p.Name == name {
			return p.Opt, true
		}
	}
	return Options{}, false
}

// MustPreset is Preset for names fixed in code: it panics on an unknown
// name.
func MustPreset(name string) Options {
	opt, ok := Preset(name)
	if !ok {
		panic(fmt.Sprintf("core: unknown preset %q", name))
	}
	return opt
}

// normalize fills in unset (zero) fields that would otherwise divide by
// zero or loop forever.
func (o *Options) normalize() {
	if o.NbTwoThreshold <= 0 {
		o.NbTwoThreshold = 100
	}
	if o.AgingPeriod == 0 {
		o.AgingPeriod = 100
	}
	if o.AgingDivisor < 2 {
		o.AgingDivisor = 2
	}
	if o.RestartFirst <= 0 {
		o.RestartFirst = 550
	}
	if o.YoungFracNum <= 0 || o.YoungFracDen <= 0 || o.YoungFracNum >= o.YoungFracDen {
		o.YoungFracNum, o.YoungFracDen = 15, 16
	}
	if o.LimitedKeepLen <= 0 {
		o.LimitedKeepLen = 42
	}
	if o.InprocessPeriod < 0 {
		o.InprocessPeriod = 0
	}
	// Between-query decay: a factor outside (0, 1) would grow activities
	// (>1), zero them (≤0 would also flip heap order) or do nothing (1);
	// any such value means "off", the documented default.
	if o.QueryDecay < 0 || o.QueryDecay >= 1 {
		o.QueryDecay = 0
	}
	if o.Seed == 0 {
		o.Seed = 0x9E3779B97F4A7C15
	}
}
