package conc

import (
	"sync"

	"berkmin/internal/cnf"
	"berkmin/internal/core"
)

// ShareMaxLen is the length cap for exchanged learnt clauses: short
// clauses prune the most and cost the least to integrate.
const ShareMaxLen = 8

// DefaultShareMaxGlue is the default glue cap: a long clause whose
// literals span few decision levels propagates like a short one, so it is
// worth exchanging even past the length cap.
const DefaultShareMaxGlue = 4

// Hub fans exported clauses out to every other member, deduplicating so a
// clause learnt by several solvers is not re-broadcast endlessly. The
// dedup memory is bounded: past maxSeen entries the set is reset, trading
// an occasional re-broadcast (harmless — members drop duplicates they
// already hold as satisfied or re-learn cheaply) for capped growth on
// hours-long solves.
type Hub struct {
	mu      sync.Mutex
	seen    map[uint64]struct{}
	solvers []*core.Solver
}

// maxSeen caps the dedup set; at ~16 bytes/entry this bounds the hub near
// ten MB even on marathon runs.
const maxSeen = 1 << 19

// newHub returns a clause-sharing hub over the given members. Publish
// forwards a clause to every member except its exporter.
func newHub(solvers []*core.Solver) *Hub {
	return &Hub{seen: make(map[uint64]struct{}, 1024), solvers: solvers}
}

// Share wires clause sharing between the members: each exports learnt
// clauses of length at most ShareMaxLen — or of glue at most maxGlue,
// unless maxGlue is negative — through one Hub, which it returns. Fewer
// than two members have nobody to share with, and Share returns nil.
func Share(solvers []*core.Solver, maxGlue int) *Hub {
	if len(solvers) < 2 {
		return nil
	}
	h := newHub(solvers)
	for i, s := range solvers {
		s.SetLearntExport(ShareMaxLen, func(lits []cnf.Lit, glue int) {
			h.Publish(i, lits, glue)
		})
		if maxGlue > 0 {
			s.SetLearntExportGlue(maxGlue)
		}
	}
	return h
}

// key folds a clause into a 64-bit fingerprint for the dedup set. The
// per-literal hashes (splitmix64 finalizer) are combined by addition, so
// the fingerprint is independent of literal order — the same clause learnt
// by two members in different orders still collides — without sorting or
// allocating; this runs under the hub mutex on every export, so it must be
// allocation-free (BenchmarkHubPublish pins 0 allocs/op). A hash collision
// between genuinely different clauses only suppresses a broadcast, never
// corrupts one, so the set needs no stored keys for equality checks.
func key(lits []cnf.Lit) uint64 {
	var h uint64
	for _, l := range lits {
		x := uint64(uint32(l)) + 0x9E3779B97F4A7C15
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		h += x
	}
	return h
}

// Publish offers a clause learnt by member from to every other member,
// unless an identical clause already crossed the hub. Pass from = -1 for a
// clause originating outside the members (e.g. a refuted cube's negation
// in package cube) so everyone receives it.
func (h *Hub) Publish(from int, lits []cnf.Lit, glue int) {
	k := key(lits)
	h.mu.Lock()
	if _, dup := h.seen[k]; dup {
		h.mu.Unlock()
		return
	}
	if len(h.seen) >= maxSeen {
		h.seen = make(map[uint64]struct{}, 1024)
	}
	h.seen[k] = struct{}{}
	h.mu.Unlock()
	for i, s := range h.solvers {
		if i != from {
			// The exporter's glue travels with the clause so a tiered
			// importer can place it in the right retention tier.
			s.Import(lits, glue)
		}
	}
}
