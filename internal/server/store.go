package server

import (
	"strings"
	"sync"
	"time"

	"berkmin"
)

// formulaEntry is one stored formula: the Snapshot paid for its parsing
// and preprocessing exactly once (at PUT time), and the Pool recycles warm
// solvers across the formula's assumption queries.
type formulaEntry struct {
	id      string
	snap    *berkmin.Snapshot
	pool    *berkmin.Pool
	vars    int
	clauses int
	created time.Time
}

// store is the concurrency-safe formula registry. Pool counters of retired
// entries (overwritten or deleted formulas, completed batch pools) are
// accumulated so the exported pool metrics stay monotonic counters.
type store struct {
	mu      sync.RWMutex
	m       map[string]*formulaEntry
	max     int
	retired berkmin.PoolStats
}

func newStore(maxFormulas int) *store {
	return &store{m: make(map[string]*formulaEntry), max: maxFormulas}
}

// validID keeps formula ids path- and label-safe.
func validID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	return strings.IndexFunc(id, func(r rune) bool {
		return !(r == '-' || r == '_' || r == '.' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'))
	}) < 0
}

// put registers (or replaces) a formula entry.
func (st *store) put(e *formulaEntry) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if old, ok := st.m[e.id]; ok {
		st.retire(old)
	} else if st.max > 0 && len(st.m) >= st.max {
		return ErrStoreFull
	}
	st.m[e.id] = e
	return nil
}

func (st *store) get(id string) (*formulaEntry, error) {
	st.mu.RLock()
	e, ok := st.m[id]
	st.mu.RUnlock()
	if !ok {
		return nil, ErrFormulaNotFound
	}
	return e, nil
}

func (st *store) delete(id string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.m[id]
	if !ok {
		return ErrFormulaNotFound
	}
	st.retire(e)
	delete(st.m, id)
	return nil
}

// retire folds a dying entry's pool counters into the retired accumulator.
// Callers hold st.mu.
func (st *store) retire(e *formulaEntry) {
	st.addRetiredLocked(e.pool.Stats())
}

func (st *store) addRetiredLocked(ps berkmin.PoolStats) {
	st.retired.Hits += ps.Hits
	st.retired.Misses += ps.Misses
	st.retired.Dropped += ps.Dropped
}

// retirePool accumulates an out-of-store pool (a batch request's ephemeral
// pool) so its hits/misses stay visible in /metrics after the batch ends.
func (st *store) retirePool(p *berkmin.Pool) {
	ps := p.Stats()
	ps.Idle = 0
	st.mu.Lock()
	st.addRetiredLocked(ps)
	st.mu.Unlock()
}

// poolStats sums the live pools plus the retired accumulator; count is the
// number of stored formulas.
func (st *store) poolStats() (ps berkmin.PoolStats, count int) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	ps = st.retired
	for _, e := range st.m {
		s := e.pool.Stats()
		ps.Hits += s.Hits
		ps.Misses += s.Misses
		ps.Dropped += s.Dropped
		ps.Idle += s.Idle
	}
	return ps, len(st.m)
}
