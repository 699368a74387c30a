package pq

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// keyedInts runs a queue of Keyed entries through the generic Queue[int]
// suite: every int is its own key.
type keyedInts struct{ q Queue[Keyed[int]] }

func (k keyedInts) Push(v int) { k.q.Push(Keyed[int]{Key: int64(v), V: v}) }
func (k keyedInts) Pop() (int, bool) {
	e, ok := k.q.Pop()
	return e.V, ok
}
func (k keyedInts) Peek() (int, bool) {
	e, ok := k.q.Peek()
	return e.V, ok
}
func (k keyedInts) Len() int { return k.q.Len() }
func (k keyedInts) Clear()   { k.q.Clear() }

// edgeKeys are mixed into the random scripts: the extremes of the key
// domain, and a small range so that duplicates are common.
var edgeKeys = []int64{math.MinInt64, math.MaxInt64, -1, 0, 1}

func scriptKey(r *xrand.Rand) int64 {
	switch r.Intn(4) {
	case 0:
		return edgeKeys[r.Intn(len(edgeKeys))]
	case 1:
		return int64(r.Intn(8))
	default:
		return int64(r.Uint64())
	}
}

// TestKeyHeapMatchesBinHeap drives a KeyHeap and a BinHeap ordered by
// key with the same random push/pop script, draining both at the end.
// Ties pop in unspecified order, so the two must agree on every popped
// key, and the KeyHeap must hand out each pushed entry exactly once,
// under the key it was pushed with.
func TestKeyHeapMatchesBinHeap(t *testing.T) {
	f := func(seed uint64, steps uint16) bool {
		r := xrand.New(seed)
		h := NewKeyHeap[int]()
		o := NewBinHeap(func(a, b Keyed[int]) bool { return a.Key < b.Key })
		live := map[int]int64{} // value -> key, for entries still inside
		pop := func() bool {
			a, aok := h.Pop()
			b, bok := o.Pop()
			key, pushed := live[a.V]
			delete(live, a.V)
			return aok && bok && a.Key == b.Key && pushed && key == a.Key
		}
		for i := 0; i < int(steps); i++ {
			if r.Intn(3) != 0 || o.Len() == 0 {
				e := Keyed[int]{Key: scriptKey(r), V: i}
				live[e.V] = e.Key
				h.Push(e)
				o.Push(e)
			} else if !pop() {
				return false
			}
			if h.Len() != o.Len() {
				return false
			}
		}
		for o.Len() > 0 {
			if !pop() {
				return false
			}
		}
		_, more := h.Pop()
		return !more && h.Len() == 0 && len(live) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestKeyHeapGrowsByDoubling fills one heap to sizes on both sides of
// several capacity doublings, draining it to empty in key order between
// fills, then does it all again on the backing array it kept. Growth
// copies the heap, so order must survive it; a heap that has held few
// entries owns few; everything allocated on the way to n entries stays
// under 4n (append's own policy reaches 5n and more, see Push); and
// reuse allocates nothing.
func TestKeyHeapGrowsByDoubling(t *testing.T) {
	sizes := []int{1, 3, 4, 5, 63, 64, 65, 1023, 1025, 4096 + 17, 100_000}
	h := NewKeyHeap[int]()
	r := xrand.New(11)
	allocated := 0
	for round, n := range append(sizes, sizes...) {
		before := cap(h.a)
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(r.Intn(n/2 + 1)) // duplicates
			was := cap(h.a)
			h.Push(Keyed[int]{Key: keys[i], V: i})
			if c := cap(h.a); c != was {
				allocated += c
			}
		}
		if h.Len() != n {
			t.Fatalf("round %d: Len = %d, want %d", round, h.Len(), n)
		}
		if c := cap(h.a); c < n || c > max(before, 3*n+8) {
			t.Fatalf("round %d: cap %d for %d entries (was %d)", round, c, n, before)
		}
		if round >= len(sizes) && cap(h.a) != before {
			t.Fatalf("round %d: cap %d -> %d on reuse", round, before, cap(h.a))
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for i, want := range keys {
			e, ok := h.Pop()
			if !ok || e.Key != want {
				t.Fatalf("round %d: pop %d = %v,%v, want key %d", round, i, e, ok, want)
			}
		}
		if _, ok := h.Pop(); ok || h.Len() != 0 {
			t.Fatalf("round %d: not empty after drain", round)
		}
	}
	if largest := sizes[len(sizes)-1]; allocated > 4*largest {
		t.Fatalf("%d entries allocated on the way to %d, want at most %d", allocated, largest, 4*largest)
	}
}

// TestKeyHeapZeroesVacatedSlots: a popped entry's reference must not
// stay in the backing store, or the heap would keep the referent alive
// for the collector long after it was handed out.
func TestKeyHeapZeroesVacatedSlots(t *testing.T) {
	h := NewKeyHeap[*int]()
	r := xrand.New(5)
	const n = 4096 + 100
	for i := 0; i < n; i++ {
		h.Push(Keyed[*int]{Key: int64(r.Intn(1000)), V: new(int)})
	}
	for h.Len() > 0 {
		h.Pop()
		if e := h.a[:h.Len()+1][h.Len()]; e.V != nil || e.Key != 0 {
			t.Fatalf("%d entries left: vacated slot still holds %v", h.Len(), e)
		}
	}
	for i := 0; i < n; i++ {
		h.Push(Keyed[*int]{Key: int64(i), V: new(int)})
	}
	h.Clear()
	for i, e := range h.a[:n] {
		if e.V != nil {
			t.Fatalf("Clear left %v in slot %d", e, i)
		}
	}
}
