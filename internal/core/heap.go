package core

import "berkmin/internal/cnf"

// activityKey is the key type of an actHeap: the legacy BerkMin/Chaff
// counters are integers, EVSIDS and LRB keep float activities.
type activityKey interface {
	~int64 | ~float64
}

// actHeap is an indexed max-heap over variables (or literals — anything
// int32-indexed) keyed by an external activity array. It generalizes
// "strategy 3" of BerkMin561 (Remark 1): an optimized most-active pick
// replacing a naive scan. Uniform monotone rescaling of every key (aging
// divides all counters by one constant, EVSIDS multiplies all activities
// by one constant) preserves the heap order without a rebuild.
type actHeap[I ~int32, K activityKey] struct {
	act  *[]K
	heap []I
	pos  []int32 // pos[x] is index+1 in heap, 0 = absent
}

// up and down sift by moving a hole rather than swapping: the element
// being placed is held aside while the entries it passes shift one level,
// and it is written once where it stops (not at all when it stays, since
// every caller has already stored it at i with its pos). They make the
// same key comparisons in the same order as a swap-based sift, so every
// pop — ties included — is what the swap version would return
// (TestActHeapMatchesSwapSift pins this).

func (h *actHeap[I, K]) up(i int) {
	if i == 0 {
		return
	}
	act, heap := *h.act, h.heap
	x := heap[i]
	k := act[x]
	parent := (i - 1) / 2
	if !(k > act[heap[parent]]) {
		return
	}
	pos := h.pos
	for {
		p := heap[parent]
		heap[i] = p
		pos[p] = int32(i + 1)
		i = parent
		if i == 0 {
			break
		}
		parent = (i - 1) / 2
		if !(k > act[heap[parent]]) {
			break
		}
	}
	heap[i] = x
	pos[x] = int32(i + 1)
}

func (h *actHeap[I, K]) down(i int) {
	act, heap, pos := *h.act, h.heap, h.pos
	n := len(heap)
	x := heap[i]
	k := act[x]
	start := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best, bk := l, act[heap[l]]
		if !(bk > k) {
			best, bk = i, k
		}
		if r := l + 1; r < n && act[heap[r]] > bk {
			best = r
		}
		if best == i {
			break
		}
		c := heap[best]
		heap[i] = c
		pos[c] = int32(i + 1)
		i = best
	}
	if i != start {
		heap[i] = x
		pos[x] = int32(i + 1)
	}
}

// grow makes room for indices up to x.
func (h *actHeap[I, K]) grow(x I) {
	for len(h.pos) <= int(x) {
		h.pos = append(h.pos, 0)
	}
}

// insert adds x if absent.
func (h *actHeap[I, K]) insert(x I) {
	h.grow(x)
	if h.pos[x] != 0 {
		return
	}
	h.heap = append(h.heap, x)
	h.pos[x] = int32(len(h.heap))
	h.up(len(h.heap) - 1)
}

// bumped restores the heap property after x's activity increased.
func (h *actHeap[I, K]) bumped(x I) {
	if int(x) < len(h.pos) && h.pos[x] != 0 {
		h.up(int(h.pos[x]) - 1)
	}
}

// remove deletes x if present (LRB keeps assigned variables out of the
// heap so its per-conflict locality decay can walk exactly the unassigned
// ones).
func (h *actHeap[I, K]) remove(x I) {
	if int(x) >= len(h.pos) || h.pos[x] == 0 {
		return
	}
	i := int(h.pos[x]) - 1
	last := len(h.heap) - 1
	h.pos[x] = 0
	if i == last {
		h.heap = h.heap[:last]
		return
	}
	moved := h.heap[last]
	h.heap[i] = moved
	h.pos[moved] = int32(i + 1)
	h.heap = h.heap[:last]
	h.up(i)
	h.down(i)
}

// clear empties the heap, keeping the backing storage.
func (h *actHeap[I, K]) clear() {
	h.heap = h.heap[:0]
	clear(h.pos)
}

// shrink empties the heap and cuts its index to n entries, keeping the
// backing storage for a later grow.
func (h *actHeap[I, K]) shrink(n int) {
	h.clear()
	h.pos = h.pos[:min(len(h.pos), n)]
}

// pop removes and returns the most active element, or 0 if empty.
func (h *actHeap[I, K]) pop() I {
	if len(h.heap) == 0 {
		return 0
	}
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.pos[h.heap[0]] = 1
	h.heap = h.heap[:last]
	h.pos[top] = 0
	if last > 0 {
		h.down(0)
	}
	return top
}

// cloneHeap deep-copies a heap, rebinding its activity pointer to the
// clone's array.
func cloneHeap[I ~int32, K activityKey](h *actHeap[I, K], act *[]K) actHeap[I, K] {
	return actHeap[I, K]{
		act:  act,
		heap: append([]I(nil), h.heap...),
		pos:  append([]int32(nil), h.pos...),
	}
}

// varHeap is the variable-indexed integer-activity heap of the legacy
// BerkMin decider ("strategy 3", Options.OptimizedGlobalPick).
type varHeap = actHeap[cnf.Var, int64]
