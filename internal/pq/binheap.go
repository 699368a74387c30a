// Package pq provides sequential priority queues used as the place-local
// components of the scheduling data structures.
//
// Section 4.1 of the paper notes that "any sequential implementation of a
// priority queue can be used for the local priority queues, since each
// priority queue is only accessed in the context of a single place". The
// package holds four, and the code that builds a structure picks among
// them (core.NewLocalQueue, relaxed's lanes) — no caller-set option does:
//
//   - BinHeap: array-backed binary heap ordered by a Less function. The
//     general case — the work-stealing and global heaps, a relaxed lane
//     or a local queue without an integer key — and the only queue with
//     the O(1) arbitrary-half split of steal-half work-stealing.
//   - KeyHeap: 4-ary heap in one contiguous slice of Keyed entries,
//     ordered by the cached integer key without calling a comparator.
//     It is the relaxed lanes' queue whenever the priority projects to
//     an integer (a few dozen entries deep, tasks held by value),
//     KeyWindow's overflow, and the tests' independent oracle for
//     BinHeap.
//   - KeyWindow: an exact bucket front over a sliding window of keys that
//     pops in O(1), with a KeyHeap behind it for the keys outside the
//     window. The local queue of the k-priority structures whenever the
//     priority projects to an integer.
//   - BucketQueue: coarse bands, LIFO within a band — the one queue here
//     that is not exact. It has no product caller; it is priced by
//     bench/ledger.go as pq.bucket_ns until ROADMAP item 1 (i).
//
// No implementation is safe for concurrent use; the owning place is
// the only accessor, exactly as in the paper's data structure model.
package pq

// Queue is the interface shared by the sequential priority queues.
// Smaller elements (per the Less function supplied at construction) are
// popped first; the Less function is the paper's "priority function".
type Queue[T any] interface {
	// Push inserts v.
	Push(v T)
	// Pop removes and returns the minimum element. ok is false when empty.
	Pop() (v T, ok bool)
	// Peek returns the minimum element without removing it.
	Peek() (v T, ok bool)
	// Len reports the number of stored elements.
	Len() int
	// Clear removes all elements.
	Clear()
}

// BinHeap is an array-backed binary min-heap.
type BinHeap[T any] struct {
	less func(a, b T) bool
	a    []T
}

// NewBinHeap returns an empty binary heap ordered by less.
func NewBinHeap[T any](less func(a, b T) bool) *BinHeap[T] {
	return &BinHeap[T]{less: less}
}

// NewBinHeapFrom builds a heap from the given elements in O(len(items)),
// taking ownership of the slice. Used by steal-half to heapify loot.
func NewBinHeapFrom[T any](less func(a, b T) bool, items []T) *BinHeap[T] {
	h := &BinHeap[T]{less: less, a: items}
	for i := len(items)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	return h
}

// Len reports the number of stored elements.
func (h *BinHeap[T]) Len() int { return len(h.a) }

// Push inserts v.
//
//schedlint:hotpath
func (h *BinHeap[T]) Push(v T) {
	//schedlint:ignore amortized heap growth; the backing array is retained across Clear/Pop, so steady state re-uses it
	h.a = append(h.a, v)
	h.siftUp(len(h.a) - 1)
}

// Pop removes and returns the minimum element.
//
//schedlint:hotpath
func (h *BinHeap[T]) Pop() (v T, ok bool) {
	if len(h.a) == 0 {
		return v, false
	}
	v = h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	var zero T
	h.a[last] = zero // release references for GC
	h.a = h.a[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return v, true
}

// Peek returns the minimum element without removing it.
func (h *BinHeap[T]) Peek() (v T, ok bool) {
	if len(h.a) == 0 {
		return v, false
	}
	return h.a[0], true
}

// Clear removes all elements but keeps the backing array.
func (h *BinHeap[T]) Clear() {
	var zero T
	for i := range h.a {
		h.a[i] = zero
	}
	h.a = h.a[:0]
}

// StealHalf removes and returns roughly half of the stored elements.
// The returned slice is owned by the caller and carries no ordering
// guarantee. The elements removed are trailing array positions, i.e.
// leaves and lower levels of the heap, so the remaining elements still
// form a valid heap without rebuilding; this is what makes steal-half
// O(stolen) for the victim.
func (h *BinHeap[T]) StealHalf() []T {
	n := len(h.a)
	if n < 2 {
		return nil
	}
	keep := (n + 1) / 2
	loot := make([]T, n-keep)
	copy(loot, h.a[keep:])
	var zero T
	for i := keep; i < n; i++ {
		h.a[i] = zero
	}
	h.a = h.a[:keep]
	return loot
}

// Items exposes the raw backing slice for tests and draining; the heap
// property holds over it. The caller must not mutate it.
func (h *BinHeap[T]) Items() []T { return h.a }

func (h *BinHeap[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.a[i], h.a[parent]) {
			return
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

func (h *BinHeap[T]) siftDown(i int) {
	n := len(h.a)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(h.a[l], h.a[min]) {
			min = l
		}
		if r < n && h.less(h.a[r], h.a[min]) {
			min = r
		}
		if min == i {
			return
		}
		h.a[i], h.a[min] = h.a[min], h.a[i]
		i = min
	}
}

var _ Queue[int] = (*BinHeap[int])(nil)
