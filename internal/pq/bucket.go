package pq

import "math/bits"

// BucketQueue is a multiresolution priority queue: the priority domain
// is pre-partitioned into a fixed number of coarse bands and elements
// are kept in per-band LIFO stacks with a word-per-64-bands occupancy
// bitmask. Push and Pop are O(1) (plus a bitmask scan bounded by
// bands/64 words) instead of the O(log n) of a comparison heap — the
// multiresolution trade: elements within one band come back in
// arbitrary (LIFO) order, so the inversion any pop can observe is
// bounded by the live occupancy of a single band rather than zero.
//
// Relaxed schedulers already budget for bounded rank error, which is
// what makes the trade sound there: coarsening the domain inside a lane
// adds at most one band's live occupancy to an error that is already
// nonzero by design.
//
// Like the other pq implementations it is sequential — the owning place
// is the only accessor.
//
// No product code builds one; the type stays because bench/ledger.go
// prices it as pq.bucket_ns, until ROADMAP item 1 (i) drops that row.
type BucketQueue[T any] struct {
	band  func(T) int // element → band index; clamped to [0, bands)
	elems [][]T       // per-band LIFO stacks; backing arrays are retained
	occ   []uint64    // occupancy bitmask, bit b of word b/64 ⇔ band b non-empty
	n     int
	low   int // lower bound on the lowest occupied band (scan hint)
}

// NewBucketQueue returns an empty bucket queue over `bands` coarse
// bands (at least 1), ordered by the band projection: smaller band
// first, LIFO within a band. Projections outside [0, bands) are clamped
// rather than rejected, so a slightly out-of-range priority degrades to
// the edge band instead of corrupting the structure.
func NewBucketQueue[T any](bands int, band func(T) int) *BucketQueue[T] {
	if bands < 1 {
		bands = 1
	}
	return &BucketQueue[T]{
		band:  band,
		elems: make([][]T, bands),
		occ:   make([]uint64, (bands+63)/64),
	}
}

func (q *BucketQueue[T]) clamp(b int) int {
	if b < 0 {
		return 0
	}
	if b >= len(q.elems) {
		return len(q.elems) - 1
	}
	return b
}

// Push inserts v into its band.
//
//schedlint:hotpath
func (q *BucketQueue[T]) Push(v T) {
	b := q.clamp(q.band(v))
	//schedlint:ignore amortized band-stack growth; backing arrays are retained across Clear, so steady state re-uses them
	q.elems[b] = append(q.elems[b], v)
	q.occ[b>>6] |= 1 << (b & 63)
	if b < q.low {
		q.low = b
	}
	q.n++
}

// lowest returns the lowest occupied band, advancing the scan hint.
// Only valid when n > 0.
func (q *BucketQueue[T]) lowest() int {
	for w := q.low >> 6; w < len(q.occ); w++ {
		if word := q.occ[w]; word != 0 {
			b := w<<6 + bits.TrailingZeros64(word)
			q.low = b
			return b
		}
	}
	// Unreachable while the occupancy mask and n agree.
	panic("pq: BucketQueue occupancy mask inconsistent")
}

// Pop removes and returns an element of the lowest occupied band (LIFO
// within the band).
//
//schedlint:hotpath
func (q *BucketQueue[T]) Pop() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	b := q.lowest()
	s := q.elems[b]
	last := len(s) - 1
	v = s[last]
	var zero T
	s[last] = zero // release the reference for GC
	q.elems[b] = s[:last]
	if last == 0 {
		q.occ[b>>6] &^= 1 << (b & 63)
	}
	q.n--
	return v, true
}

// Peek returns an element of the lowest occupied band without removing
// it.
func (q *BucketQueue[T]) Peek() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	s := q.elems[q.lowest()]
	return s[len(s)-1], true
}

// Len reports the number of stored elements.
func (q *BucketQueue[T]) Len() int { return q.n }

// Clear removes all elements but keeps the per-band backing arrays.
func (q *BucketQueue[T]) Clear() {
	var zero T
	for b := range q.elems {
		s := q.elems[b]
		for i := range s {
			s[i] = zero
		}
		q.elems[b] = s[:0]
	}
	for w := range q.occ {
		q.occ[w] = 0
	}
	q.n = 0
	q.low = 0
}

var _ Queue[int] = (*BucketQueue[int])(nil)
