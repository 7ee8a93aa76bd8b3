package core

import (
	"strings"
	"testing"

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
