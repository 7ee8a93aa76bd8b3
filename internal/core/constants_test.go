package core

import (
	"reflect"
	"strings"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/gen"
)

// engineCounters is the slice of Stats that the engine's fixed tuning
// constants steer: the BerkMin §8 keep rule (DeletedTotal), the glue tiers
// (TierPromotions/Demotions), restart postponement (PostponedRestarts), the
// inprocessing passes and bounds (InprocessPasses and the per-pass counts)
// and the EVSIDS/LRB schedules (Conflicts, Decisions, ActivityRescales).
type engineCounters struct {
	status                 Status
	conflicts, decisions   uint64
	deleted                uint64
	promotions, demotions  uint64
	postponed              uint64
	passes                 uint64
	subsumed, strengthened uint64
	vivified               uint64
	rescales               uint64
}

func countersOf(r Result) engineCounters {
	st := r.Stats
	return engineCounters{
		status:       r.Status,
		conflicts:    st.Conflicts,
		decisions:    st.Decisions,
		deleted:      st.DeletedTotal,
		promotions:   st.TierPromotions,
		demotions:    st.TierDemotions,
		postponed:    st.PostponedRestarts,
		passes:       st.InprocessPasses,
		subsumed:     st.SubsumedClauses,
		strengthened: st.StrengthenedLits,
		vivified:     st.VivifiedClauses,
		rescales:     st.ActivityRescales,
	}
}

// TestEngineConstantsGolden pins the exact search of every preset that
// reads one of the engine's tuning constants (keep-rule lengths and
// activities, glue tiers, tiered reduce schedule, postponement window and
// factor, inprocessing bounds, EVSIDS decay, LRB alpha schedule and
// locality) on two pigeonhole instances under a 10k-conflict cap. The rows
// were captured while those constants were still Options fields; any drift
// means a constant changed value or stopped being read where it was.
func TestEngineConstantsGolden(t *testing.T) {
	configs := map[string]Options{
		"berkmin":      DefaultOptions(),
		"tiered":       TieredOptions(),
		"modern":       ModernOptions(),
		"inprocessing": InprocessingOptions(),
		"lrb":          LrbOptions(),
		"evsids":       EvsidsOptions(),
	}
	//   status, conflicts, decisions, deleted, promotions, demotions,
	//   postponed, passes, subsumed, strengthened, vivified, rescales
	golden := []struct {
		run  string
		want engineCounters
	}{
		{"berkmin/hole7", engineCounters{StatusUnsat, 2924, 3025, 361, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"berkmin/hole8", engineCounters{StatusUnknown, 10000, 10324, 3287, 3, 0, 0, 0, 0, 0, 0, 0}},
		{"tiered/hole7", engineCounters{StatusUnsat, 4617, 5339, 814, 838, 0, 3, 0, 0, 0, 0, 0}},
		{"tiered/hole8", engineCounters{StatusUnknown, 10000, 12277, 6782, 157, 190, 2, 0, 0, 0, 0, 0}},
		{"modern/hole7", engineCounters{StatusUnsat, 6046, 7128, 2511, 1253, 723, 5, 0, 0, 0, 0, 1}},
		{"modern/hole8", engineCounters{StatusUnknown, 10000, 12767, 7697, 696, 772, 4, 0, 0, 0, 0, 2}},
		{"inprocessing/hole7", engineCounters{StatusUnsat, 2812, 2907, 304, 7, 0, 0, 1, 10, 49, 91, 0}},
		{"inprocessing/hole8", engineCounters{StatusUnsat, 9643, 9986, 3391, 17, 0, 0, 4, 27, 29, 430, 0}},
		{"lrb/hole7", engineCounters{StatusUnsat, 7208, 8131, 2298, 5, 0, 0, 0, 0, 0, 0, 0}},
		{"lrb/hole8", engineCounters{StatusUnknown, 10000, 11554, 4134, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"evsids/hole7", engineCounters{StatusUnsat, 3492, 4100, 666, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"evsids/hole8", engineCounters{StatusUnknown, 10000, 11761, 3757, 0, 0, 0, 0, 0, 0, 0, 2}},
	}
	insts := map[string]gen.Instance{"hole7": gen.Pigeonhole(7), "hole8": gen.Pigeonhole(8)}
	var seen engineCounters
	for _, row := range golden {
		config, inst, _ := strings.Cut(row.run, "/")
		opt := configs[config]
		opt.MaxConflicts = 10000
		s := New(opt)
		s.AddFormula(insts[inst].Formula)
		if got := countersOf(s.Solve()); got != row.want {
			t.Errorf("%s: got %+v\nwant %+v", row.run, got, row.want)
		}
		w := row.want
		seen.deleted += w.deleted
		seen.promotions += w.promotions
		seen.demotions += w.demotions
		seen.postponed += w.postponed
		seen.passes += w.passes
		seen.subsumed += w.subsumed
		seen.strengthened += w.strengthened
		seen.vivified += w.vivified
		seen.rescales += w.rescales
	}
	// Every constant must actually steer some pinned run: a counter that is
	// zero across the whole table would let its constant drift unnoticed.
	if seen.deleted == 0 || seen.promotions == 0 || seen.demotions == 0 ||
		seen.postponed == 0 || seen.passes == 0 || seen.subsumed == 0 ||
		seen.strengthened == 0 || seen.vivified == 0 || seen.rescales == 0 {
		t.Fatalf("a pinned counter is zero in every row: %+v", seen)
	}
}

// streamCounters is one call's cumulative Conflicts, Decisions and
// Propagations.
type streamCounters [3]uint64

// runDeciderStream drives hole7 through eight capped SolveAssuming calls
// that cross every decider hook boundary the one-shot pins never do: a
// level-0 unit AddClause after call 3, a Clone after call 4 (the stream
// continues on the clone) and a Reset after call 6. A non-nil reconfigure
// is applied after call 2. Each call may spend 200 more conflicts.
func runDeciderStream(opt Options, reconfigure *Options) []streamCounters {
	assumptions := [][]cnf.Lit{
		nil,
		{cnf.PosLit(1)},
		{cnf.NegLit(1), cnf.PosLit(9)},
		nil,
		{cnf.PosLit(2), cnf.NegLit(10)},
		{cnf.PosLit(17)},
		nil,
		{cnf.NegLit(3)},
	}
	s := New(opt)
	s.AddFormula(gen.Pigeonhole(7).Formula)
	var got []streamCounters
	for i, as := range assumptions {
		s.opt.MaxConflicts = s.stats.Conflicts + 200
		st := s.SolveAssuming(as).Stats
		got = append(got, streamCounters{st.Conflicts, st.Decisions, st.Propagations})
		switch i + 1 {
		case 2:
			if reconfigure != nil {
				s.Reconfigure(*reconfigure)
			}
		case 3:
			s.AddClause(cnf.Clause{cnf.PosLit(12)})
		case 4:
			s = s.Clone()
		case 6:
			s.Reset()
		}
	}
	return got
}

// TestDeciderStreamGolden pins the search of an incremental stream for
// every decider family and heap mode. The values were captured while the
// engine still called the decider once per assignment and once per
// unassigned variable, so any drift in when a decider observes the trail
// (assignment stamps, heap operation order) shows here.
func TestDeciderStreamGolden(t *testing.T) {
	optimized := func(o Options) Options { o.OptimizedGlobalPick = true; return o }
	chaff := DefaultOptions()
	chaff.Decision = DecideChaffLiteral
	lrbStream := LrbOptions()
	lrbStream.QueryDecay = 0.7
	lrbStream.InprocessPeriod = 1
	// Inprocessing runs at restarts; restart well inside the per-call cap
	// so vivification's probes backtrack through the decider mid-stream.
	lrbStream.RestartFirst = 60
	lrbStream.RestartJitter = 10
	lrb := LrbOptions()
	rows := []struct {
		name        string
		opt         Options
		reconfigure *Options
		want        []streamCounters
	}{
		// Each row: after every call, {Conflicts, Decisions, Propagations}.
		{"berkmin", DefaultOptions(), nil, []streamCounters{
			{200, 213, 2765}, {400, 422, 5727}, {600, 632, 8729}, {800, 841, 11465},
			{817, 858, 11636}, {833, 874, 11813}, {200, 206, 3029}, {320, 334, 4779}}},
		{"berkmin-s3", optimized(DefaultOptions()), nil, []streamCounters{
			{200, 214, 3006}, {400, 423, 5920}, {600, 632, 8630}, {800, 840, 11238},
			{852, 903, 12066}, {936, 990, 13050}, {200, 212, 2966}, {347, 369, 5283}}},
		{"chaff-heap", optimized(chaff), nil, []streamCounters{
			{200, 234, 2915}, {303, 337, 4663}, {485, 528, 7826}, {685, 731, 10202},
			{685, 731, 10202}, {688, 734, 10221}, {106, 125, 1419}, {106, 125, 1419}}},
		{"evsids", EvsidsOptions(), nil, []streamCounters{
			{200, 245, 3029}, {400, 496, 5794}, {600, 750, 8704}, {800, 990, 11259},
			{853, 1054, 11936}, {946, 1169, 13173}, {200, 244, 3129}, {400, 476, 6094}}},
		{"lrb", LrbOptions(), nil, []streamCounters{
			{200, 234, 3182}, {400, 468, 6230}, {600, 711, 9046}, {800, 953, 11968},
			{934, 1105, 13811}, {1008, 1193, 14792}, {200, 231, 3228}, {400, 457, 6130}}},
		{"lrb-stream", lrbStream, nil, []streamCounters{
			{200, 282, 11067}, {400, 588, 26646}, {600, 863, 42678}, {800, 1117, 57893},
			{928, 1262, 63668}, {1034, 1377, 69027}, {200, 252, 10403}, {400, 513, 24075}}},
		{"berkmin-to-lrb", DefaultOptions(), &lrb, []streamCounters{
			{200, 213, 2765}, {400, 422, 5727}, {600, 666, 8899}, {800, 899, 11671},
			{849, 956, 12262}, {937, 1057, 13581}, {200, 227, 3318}, {400, 464, 6266}}},
	}
	for _, row := range rows {
		got := runDeciderStream(row.opt, row.reconfigure)
		if !reflect.DeepEqual(got, row.want) {
			t.Errorf("%s:\n got %v\nwant %v", row.name, got, row.want)
		}
	}
}
