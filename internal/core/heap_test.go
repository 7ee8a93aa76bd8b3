package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"berkmin/internal/cnf"
)

// TestVarHeapBasics: insert, pop order, duplicate insert.
func TestVarHeapBasics(t *testing.T) {
	act := []int64{0, 5, 9, 1, 9}
	h := varHeap{act: &act}
	for v := cnf.Var(1); v <= 4; v++ {
		h.insert(v)
	}
	h.insert(2) // duplicate: no-op
	if len(h.heap) != 4 {
		t.Fatalf("heap size = %d", len(h.heap))
	}
	first := h.pop()
	if act[first] != 9 {
		t.Fatalf("pop activity = %d, want 9", act[first])
	}
	second := h.pop()
	if act[second] != 9 {
		t.Fatalf("second pop activity = %d, want 9", act[second])
	}
	if h.pop() != 1 || h.pop() != 3 {
		t.Fatal("remaining pops out of order")
	}
	if h.pop() != 0 {
		t.Fatal("empty heap must pop 0")
	}
}

// TestVarHeapBumped: raising a key restores order.
func TestVarHeapBumped(t *testing.T) {
	act := []int64{0, 1, 2, 3}
	h := varHeap{act: &act}
	for v := cnf.Var(1); v <= 3; v++ {
		h.insert(v)
	}
	act[1] = 100
	h.bumped(1)
	if got := h.pop(); got != 1 {
		t.Fatalf("pop = %d, want bumped var 1", got)
	}
}

// TestVarHeapAgainstReference drives random operation sequences and
// compares pop order with a linear-scan reference.
func TestVarHeapAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 100; iter++ {
		n := 2 + rng.Intn(30)
		act := make([]int64, n+1)
		h := varHeap{act: &act}
		present := map[cnf.Var]bool{}
		for v := cnf.Var(1); int(v) <= n; v++ {
			h.insert(v)
			present[v] = true
		}
		for op := 0; op < 50; op++ {
			switch rng.Intn(3) {
			case 0: // bump
				v := cnf.Var(1 + rng.Intn(n))
				act[v] += int64(rng.Intn(5))
				h.bumped(v)
			case 1: // reinsert
				v := cnf.Var(1 + rng.Intn(n))
				h.insert(v)
				present[v] = true
			case 2: // pop and compare with the max of present
				if len(present) == 0 {
					continue
				}
				var wantAct int64 = -1
				for v := range present {
					if act[v] > wantAct {
						wantAct = act[v]
					}
				}
				got := h.pop()
				if got == 0 {
					t.Fatal("heap empty while reference is not")
				}
				if act[got] != wantAct {
					t.Fatalf("pop activity %d, reference max %d", act[got], wantAct)
				}
				delete(present, got)
			}
		}
	}
}

// swapHeap is the swap-based sift actHeap used before its sifts moved a
// hole instead: the reference TestActHeapMatchesSwapSift holds the hole
// version to, operation for operation.
type swapHeap[K activityKey] struct {
	act  *[]K
	heap []cnf.Var
	pos  []int32
}

func (h *swapHeap[K]) less(i, j int) bool {
	a := *h.act
	return a[h.heap[i]] > a[h.heap[j]]
}

func (h *swapHeap[K]) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i + 1)
	h.pos[h.heap[j]] = int32(j + 1)
}

func (h *swapHeap[K]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *swapHeap[K]) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(l, best) {
			best = l
		}
		if r < n && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *swapHeap[K]) insert(x cnf.Var) {
	for len(h.pos) <= int(x) {
		h.pos = append(h.pos, 0)
	}
	if h.pos[x] != 0 {
		return
	}
	h.heap = append(h.heap, x)
	h.pos[x] = int32(len(h.heap))
	h.up(len(h.heap) - 1)
}

func (h *swapHeap[K]) bumped(x cnf.Var) {
	if int(x) < len(h.pos) && h.pos[x] != 0 {
		h.up(int(h.pos[x]) - 1)
	}
}

func (h *swapHeap[K]) remove(x cnf.Var) {
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

func (h *swapHeap[K]) clear() {
	h.heap = h.heap[:0]
	clear(h.pos)
}

func (h *swapHeap[K]) pop() cnf.Var {
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

// TestActHeapMatchesSwapSift drives actHeap and the swap-based reference
// through identical random insert / bumped / remove / pop / clear
// sequences over keys drawn from a handful of values (so ties are the
// common case) and asserts the same pop results and the same heap and pos
// arrays after every operation, for both key types.
func TestActHeapMatchesSwapSift(t *testing.T) {
	t.Run("int64", func(t *testing.T) { matchSwapSift(t, func(r *rand.Rand) int64 { return int64(r.Intn(4)) }) })
	t.Run("float64", func(t *testing.T) {
		matchSwapSift(t, func(r *rand.Rand) float64 { return float64(r.Intn(4)) * 0.5 })
	})
}

func matchSwapSift[K activityKey](t *testing.T, draw func(*rand.Rand) K) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(40)
		act := make([]K, n+1)
		for v := range act {
			act[v] = draw(rng)
		}
		h := actHeap[cnf.Var, K]{act: &act}
		ref := swapHeap[K]{act: &act}
		for op := 0; op < 300; op++ {
			v := cnf.Var(1 + rng.Intn(n))
			switch k := rng.Intn(10); {
			case k < 3:
				h.insert(v)
				ref.insert(v)
			case k < 5:
				act[v] += draw(rng)
				h.bumped(v)
				ref.bumped(v)
			case k < 7:
				h.remove(v)
				ref.remove(v)
			case k < 9:
				if got, want := h.pop(), ref.pop(); got != want {
					t.Fatalf("iter %d op %d: pop %d, swap sift pops %d", iter, op, got, want)
				}
			default:
				if rng.Intn(4) == 0 {
					h.clear()
					ref.clear()
				}
			}
			if !slices.Equal(h.heap, ref.heap) || !slices.Equal(h.pos, ref.pos) {
				t.Fatalf("iter %d op %d: heap %v pos %v, swap sift heap %v pos %v",
					iter, op, h.heap, h.pos, ref.heap, ref.pos)
			}
		}
	}
}

// TestXorshiftDeterministicAndSpread: the PRNG reproduces per seed and
// intn covers its range.
func TestXorshiftDeterministicAndSpread(t *testing.T) {
	a, b := newXorshift(42), newXorshift(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed must reproduce")
		}
	}
	c := newXorshift(0) // zero seed replaced by a constant
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := c.intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) < 8 {
		t.Fatalf("poor spread: %v", seen)
	}
}

// TestXorshiftQuick: intn stays in range for arbitrary seeds (property).
func TestXorshiftQuick(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		x := newXorshift(seed)
		v := x.intn(int(n))
		return v >= 0 && v < int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSkinHistGrowth: recording grows the histogram on demand.
func TestSkinHistGrowth(t *testing.T) {
	var h SkinHist
	h.record(0)
	h.record(5)
	h.record(5)
	if h.At(0) != 1 || h.At(5) != 2 || h.At(3) != 0 || h.At(99) != 0 {
		t.Fatalf("hist = %v", h.Counts)
	}
	if h.Total() != 3 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.At(-1) != 0 {
		t.Fatal("negative distance must read 0")
	}
}
