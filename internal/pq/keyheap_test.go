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

// TestKeyHeapChunkBoundaries fills one heap to sizes on both sides of a
// chunk boundary and into a third chunk, draining it to empty in key
// order between fills, then does it all again on the chunks it kept.
func TestKeyHeapChunkBoundaries(t *testing.T) {
	const slots = keyChunkSize - keyRoot // entries the first chunk holds
	sizes := []int{slots - 1, slots, slots + 1, keyChunkSize - 1, keyChunkSize, keyChunkSize + 1, 2*keyChunkSize + 17}
	h := NewKeyHeap[int]()
	r := xrand.New(11)
	for round, n := range append(sizes, sizes...) {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(r.Intn(n / 2)) // duplicates
			h.Push(Keyed[int]{Key: keys[i], V: i})
		}
		if h.Len() != n {
			t.Fatalf("round %d: Len = %d, want %d", round, h.Len(), n)
		}
		if round < 2 && len(h.c) != 1 || round == 2 && len(h.c) != 2 {
			t.Fatalf("round %d: %d chunks for %d entries", round, len(h.c), n)
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
	if len(h.c) != 3 {
		t.Fatalf("%d chunks after reuse, want the 3 of the largest fill", len(h.c))
	}
}

// TestKeyHeapZeroesVacatedSlots: a popped entry's reference must not
// stay in the backing store, or the heap would keep the referent alive
// for the collector long after it was handed out.
func TestKeyHeapZeroesVacatedSlots(t *testing.T) {
	h := NewKeyHeap[*int]()
	r := xrand.New(5)
	const n = keyChunkSize + 100
	for i := 0; i < n; i++ {
		h.Push(Keyed[*int]{Key: int64(r.Intn(1000)), V: new(int)})
	}
	for h.Len() > 0 {
		h.Pop()
		if e := *h.at(keyRoot + h.Len()); e.V != nil || e.Key != 0 {
			t.Fatalf("%d entries left: vacated slot still holds %v", h.Len(), e)
		}
	}
	for i := 0; i < n; i++ {
		h.Push(Keyed[*int]{Key: int64(i), V: new(int)})
	}
	h.Clear()
	for i := keyRoot; i < keyRoot+n; i++ {
		if e := *h.at(i); e.V != nil {
			t.Fatalf("Clear left %v in slot %d", e, i)
		}
	}
}
