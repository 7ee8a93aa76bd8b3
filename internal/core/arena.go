package core

import (
	"unsafe"

	"berkmin/internal/cnf"
)

// Flat clause storage. Every clause of the solver — problem and learnt —
// lives in one contiguous []uint32 owned by the solver's clauseArena, and
// is addressed by a clauseRef: the index of its header word. Propagation,
// conflict analysis and database management therefore walk a single slab
// of memory instead of chasing per-clause heap pointers, and the search
// loop allocates nothing per clause (the MiniSat storage scheme; see also
// the cache-consciousness arguments of the CDCL-optimization literature).
//
// Clause layout, in words:
//
//	[0] header:   size<<hdrSizeShift | flags (learnt/protect/deleted/reloc)
//	[1] activity: clause_activity of §8 (conflicts the clause caused), or
//	              the forwarding ref while hdrReloc is set during GC
//	[2] extra:    glue (LBD — the distinct decision levels of the clause at
//	              learn time, improved on reuse) in the low 16 bits, the
//	              learnt-database tier (CORE/TIER2/LOCAL) in bits 16-17, and
//	              the touched flag (participated in a conflict since the
//	              last tiered cleaning) in bit 18
//	[3..3+size)  the literals
//
// Deletion is lazy: free only sets hdrDeleted and accounts the words as
// wasted; the clause stays readable (its literals are still needed for
// DRUP deletion logging and in-flight watcher lists) until the next
// garbageCollect compacts the arena.

// clauseRef addresses a clause: the index of its header word in
// clauseArena.data. refUndef is the nil clause (no antecedent / no
// conflict). refBin marks a binary antecedent: the reason is not a stored
// clause ref but the implying literal held in Solver.binReason (conflict
// analysis resolves it without touching the arena). Both sentinels sit
// above every ref alloc can produce: the arena is capped at maxArenaWords
// and a clause carries at least clauseHdrWords+2 words after its header.
type clauseRef uint32

const (
	refUndef clauseRef = ^clauseRef(0)
	refBin   clauseRef = ^clauseRef(0) - 1
)

const (
	hdrLearnt   uint32 = 1 << 0 // conflict clause (lives on the learnt stack)
	hdrProtect  uint32 = 1 << 1 // never removable (§8 anti-looping marking)
	hdrDeleted  uint32 = 1 << 2 // tombstoned, awaiting compaction
	hdrRelocate uint32 = 1 << 3 // moved by GC; word [1] holds the new ref

	hdrSizeShift = 4

	// clauseHdrWords is the per-clause overhead: header, activity, extra
	// (glue/tier/touched).
	clauseHdrWords = 3
)

// clauseTier is a learnt clause's retention class under the glue-aware
// three-tier database (ReduceTiered, reduce.go). The numeric order matters:
// a clause only ever moves to a numerically larger tier when its glue
// improves (promotion), and TIER2→LOCAL demotion is the one exception,
// applied by the cleaning pass when a TIER2 clause sat out a whole
// inter-cleaning interval.
type clauseTier uint32

const (
	// tierLocal holds everything else: activity-sorted, worst half deleted
	// at each cleaning.
	tierLocal clauseTier = 0
	// tierMid (TIER2) holds recently useful mid-glue clauses; demoted to
	// LOCAL after a full inter-cleaning interval without a conflict.
	tierMid clauseTier = 1
	// tierCore holds glue ≤ coreGlue clauses and binaries: never deleted.
	tierCore clauseTier = 2
)

// Bit layout of the extra word.
const (
	xtrGlueMask  uint32 = 0xFFFF // low 16 bits: glue (LBD), saturating
	xtrTierShift        = 16
	xtrTierMask  uint32 = 3 << xtrTierShift
	xtrTouched   uint32 = 1 << 18
)

// clauseArena owns the flat storage.
type clauseArena struct {
	data   []uint32
	wasted uint32 // words held by tombstoned clauses and stripped literal tails
}

// maxArenaWords caps the arena so a clauseRef can never collide with
// refUndef or wrap; maxClauseSize is what fits in the header's size field.
// Exceeding either is unrecoverable corruption-in-waiting, so alloc panics
// rather than silently truncating (a database past 16 GiB has long since
// left the regime this solver is built for).
const (
	maxArenaWords uint64 = 1<<32 - 2 // keeps every ref below refUndef
	maxClauseSize        = 1<<(32-hdrSizeShift) - 1
)

// alloc appends a clause and returns its ref. The literals are copied into
// the arena. Any []cnf.Lit previously obtained from lits() may be
// invalidated by the append — callers must not hold literal slices across
// an alloc.
func (a *clauseArena) alloc(lits []cnf.Lit, learnt bool) clauseRef {
	if len(lits) > maxClauseSize {
		panic("core: clause exceeds the arena header's size field")
	}
	if uint64(len(a.data))+clauseHdrWords+uint64(len(lits)) > maxArenaWords {
		panic("core: clause arena exceeds the 32-bit ref range")
	}
	r := clauseRef(len(a.data))
	hdr := uint32(len(lits)) << hdrSizeShift
	if learnt {
		hdr |= hdrLearnt
	}
	a.data = append(a.data, hdr, 0, 0)
	for _, l := range lits {
		a.data = append(a.data, uint32(l))
	}
	return r
}

func (a *clauseArena) size(r clauseRef) int { return int(a.data[r] >> hdrSizeShift) }

// lits returns the clause's literals as a slice aliasing the arena. A
// cnf.Lit is an int32 with the same representation as the stored uint32
// word, so the reinterpretation is exact. The slice is invalidated by the
// next alloc or garbageCollect.
func (a *clauseArena) lits(r clauseRef) []cnf.Lit {
	n := a.data[r] >> hdrSizeShift
	return unsafe.Slice((*cnf.Lit)(unsafe.Pointer(&a.data[int(r)+clauseHdrWords])), n)
}

func (a *clauseArena) learnt(r clauseRef) bool  { return a.data[r]&hdrLearnt != 0 }
func (a *clauseArena) protect(r clauseRef) bool { return a.data[r]&hdrProtect != 0 }
func (a *clauseArena) setProtect(r clauseRef)   { a.data[r] |= hdrProtect }
func (a *clauseArena) deleted(r clauseRef) bool { return a.data[r]&hdrDeleted != 0 }

func (a *clauseArena) act(r clauseRef) int64 { return int64(a.data[r+1]) }
func (a *clauseArena) bumpAct(r clauseRef) {
	if a.data[r+1] != ^uint32(0) { // saturate rather than wrap
		a.data[r+1]++
	}
}
func (a *clauseArena) setAct(r clauseRef, v int64) { a.data[r+1] = uint32(v) }

// glue returns the clause's LBD — the number of distinct decision levels
// its literals spanned when it was learnt, lowered whenever a recomputation
// during conflict analysis finds an improvement (analyze.go).
func (a *clauseArena) glue(r clauseRef) int { return int(a.data[r+2] & xtrGlueMask) }

func (a *clauseArena) setGlue(r clauseRef, g int) {
	if g > int(xtrGlueMask) {
		g = int(xtrGlueMask) // saturate; a glue this high never matters
	}
	a.data[r+2] = a.data[r+2]&^xtrGlueMask | uint32(g)
}

func (a *clauseArena) tier(r clauseRef) clauseTier {
	return clauseTier(a.data[r+2]&xtrTierMask) >> xtrTierShift
}

func (a *clauseArena) setTier(r clauseRef, t clauseTier) {
	a.data[r+2] = a.data[r+2]&^xtrTierMask | uint32(t)<<xtrTierShift
}

// touched marks participation in a conflict since the last tiered
// cleaning: TIER2 clauses that are never touched between cleanings are
// demoted (reduce.go).
func (a *clauseArena) touched(r clauseRef) bool { return a.data[r+2]&xtrTouched != 0 }
func (a *clauseArena) setTouched(r clauseRef)   { a.data[r+2] |= xtrTouched }
func (a *clauseArena) clearTouched(r clauseRef) { a.data[r+2] &^= xtrTouched }

// has reports whether the clause contains the literal.
func (a *clauseArena) has(r clauseRef, l cnf.Lit) bool {
	for _, x := range a.lits(r) {
		if x == l {
			return true
		}
	}
	return false
}

// free tombstones a clause. Its storage is reclaimed by the next
// garbageCollect; until then the literals remain readable.
func (a *clauseArena) free(r clauseRef) {
	if a.data[r]&hdrDeleted != 0 {
		return
	}
	a.data[r] |= hdrDeleted
	a.wasted += uint32(clauseHdrWords + a.size(r))
}

// shrink truncates a clause in place to its first n literals (level-0
// literal stripping writes the kept literals to the front first). The cut
// tail becomes wasted space until the next compaction.
func (a *clauseArena) shrink(r clauseRef, n int) {
	old := a.size(r)
	if n >= old {
		return
	}
	a.wasted += uint32(old - n)
	a.data[r] = uint32(n)<<hdrSizeShift | a.data[r]&(1<<hdrSizeShift-1)
}

// words returns the total arena size in words.
func (a *clauseArena) words() int { return len(a.data) }

// relocate copies a live clause into dst (idempotently: a clause already
// moved forwards to its new home) and returns its new ref. The old
// header is overwritten with a forwarding mark so every alias of the ref
// resolves to the same relocated clause.
func (a *clauseArena) relocate(r clauseRef, dst *clauseArena) clauseRef {
	if a.data[r]&hdrRelocate != 0 {
		return clauseRef(a.data[r+1])
	}
	nr := clauseRef(len(dst.data))
	end := int(r) + clauseHdrWords + a.size(r)
	dst.data = append(dst.data, a.data[r:end]...)
	a.data[r] |= hdrRelocate
	a.data[r+1] = uint32(nr)
	return nr
}

// garbageCollect compacts the arena: live clauses referenced from the
// problem and learnt lists are moved to a fresh slab in order, and every
// ref the solver holds (clause lists, antecedents) is remapped. Watcher
// and occurrence lists are NOT remapped — the caller must rebuild them
// (reduceDB does so right after). Must run at decision level 0.
func (s *Solver) garbageCollect() {
	dst := clauseArena{data: make([]uint32, 0, s.ca.words()-int(s.ca.wasted))}
	for i, r := range s.clauses {
		s.clauses[i] = s.ca.relocate(r, &dst)
	}
	for i, r := range s.learnts {
		s.learnts[i] = s.ca.relocate(r, &dst)
	}
	// Antecedents of level-0 assignments are cleared before database
	// management, so normally nothing remains to remap here; this pass
	// keeps the invariant "no stale ref survives a GC" regardless. Binary
	// antecedents are literal-encoded (refBin), not refs — nothing to remap.
	for v := range s.reason {
		if r := s.reason[v]; r != refUndef && r != refBin {
			s.reason[v] = s.ca.relocate(r, &dst)
		}
	}
	s.ca = dst
	s.top.rewritten() // the mirror holds the old refs
	s.stats.ArenaGCs++
}

// maybeGC compacts when at least a quarter of the arena is dead. The
// caller must rebuild watches and occurrence lists afterwards.
func (s *Solver) maybeGC() {
	if s.ca.wasted > 0 && int(s.ca.wasted)*4 >= s.ca.words() {
		s.garbageCollect()
	}
}
