package pq

import "math/bits"

// KeyWindow sizing. The band table is fixed: with the bands sized so
// that the keys in flight span half to all of the window (fitShift),
// 2^15 bands keep a chain at one or two entries for the depths a
// place's local queue reaches (tens of thousands of references), and
// 4-byte heads make the table 128 KB — allocated only once a queue has
// held winActivate entries, so the many small queues a process builds
// never pay for it.
const (
	winBandBits = 15
	winBands    = 1 << winBandBits
	winMask     = winBands - 1
	winActivate = 1024 // entries held before the band table is built
	winEpoch    = 4096 // pushes between looks at the band width
	// winMaxBanded caps the entries in the bands: past two per band
	// chains get long enough for a heap's log₄ n to win, so the excess
	// goes to the heap.
	winMaxBanded = 2 * winBands

	winChunkBits = 10 // nodes per pool chunk
	winChunkSize = 1 << winChunkBits
	winChunkMask = winChunkSize - 1
)

// winChunk is one chunk of the node pool. A node is an entry plus the
// index of the next node of its band (or of the free list; 0 ends
// either): chains cost no allocation, and keeping the links in an array
// of their own makes a node 20 bytes at pointer-sized V instead of 24.
type winChunk[V any] struct {
	e    [winChunkSize]Keyed[V]
	next [winChunkSize]uint32
}

// KeyWindow is an exact min-queue of Keyed entries — Pop always returns
// an entry with the minimum key, ties in unspecified order, exactly like
// KeyHeap — whose front is a bucket array instead of a heap. Keys are
// cut into bands of 2^shift consecutive values; a window of winBands
// bands starts at the band of the smallest banded key and slides up as
// the minimum advances. An entry inside the window is linked into its
// band's chain in O(1); Pop finds the first occupied band through an
// occupancy bitmap and scans that one chain for its smallest key, so the
// order is exact by key, not by band. Entries outside the window (too
// far below its start, past its end, or more than winMaxBanded at once)
// go to a KeyHeap, and Pop takes whichever front is smaller. With
// the bands sized right that is about one node scanned per pop and one
// sequential table line, where a heap of the same depth walks log₄ n
// random ones — the multiresolution trade of BucketQueue without giving
// up order.
//
// The band width is never configured: the first one is read off the
// entries held at activation, and every winEpoch pushes it is re-derived
// from how far above the window start that epoch's pushes landed
// (adapt). A poor width costs time, never order.
//
// Like the other queues it is sequential.
type KeyWindow[V any] struct {
	heap KeyHeap[V]

	heads []uint32 // per band slot: first node of the chain, 0 when empty; nil until activated
	occ   []uint64 // bit s set ⇔ heads[s] != 0
	nodes []*winChunk[V]
	used  uint32 // node indexes handed out so far; index 0 is the nil link
	free  uint32 // head of the free list
	n     int    // entries in the bands
	cur   uint64 // band number (ukey >> shift) of the window start
	top   uint64 // no band above this one is occupied (a bound, not the maximum)
	shift uint8

	// This epoch's pushes: how many, how many at or above the window
	// start, how many past its end, and the largest distance in key
	// units from the window start.
	pushes, ahead, above int
	hiOff                uint64
}

// NewKeyWindow returns an empty queue.
func NewKeyWindow[V any]() *KeyWindow[V] {
	return &KeyWindow[V]{heap: *NewKeyHeap[V](), used: 1}
}

// ukey maps a key to an unsigned integer of the same order, so band
// numbers and offsets are plain unsigned arithmetic over the whole
// int64 domain.
func ukey(k int64) uint64 { return uint64(k) ^ 1<<63 }

// fitShift is the smallest band width (as a shift) at which a key span
// fits in the window; the span then covers at least half of it.
func fitShift(span uint64) uint8 {
	if n := bits.Len64(span); n > winBandBits {
		return uint8(n - winBandBits)
	}
	return 0
}

// Len reports the number of stored elements.
func (q *KeyWindow[V]) Len() int { return q.n + q.heap.Len() }

// ent and next address node i's two halves.
func (q *KeyWindow[V]) ent(i uint32) *Keyed[V] {
	return &q.nodes[i>>winChunkBits].e[i&winChunkMask]
}

func (q *KeyWindow[V]) next(i uint32) *uint32 {
	return &q.nodes[i>>winChunkBits].next[i&winChunkMask]
}

// Push inserts e.
//
//schedlint:hotpath
func (q *KeyWindow[V]) Push(e Keyed[V]) {
	if q.heads == nil {
		q.heap.Push(e)
		if q.heap.Len() >= winActivate {
			q.activate()
		}
		return
	}
	u := ukey(e.Key)
	band := u >> q.shift
	switch {
	case q.n == 0:
		q.cur, q.top = band, band // nothing banded: the window starts wherever this key is
	case band < q.cur && q.top-band < winBands:
		q.cur = band // room at the top: slide the window down to take the key
	}
	d := band - q.cur // wraps to a huge value below the window start
	if band >= q.cur {
		q.ahead++
		if off := u - q.cur<<q.shift; off > q.hiOff {
			q.hiOff = off
		}
		if d >= winBands {
			q.above++
		}
	}
	if d >= winBands || q.n >= winMaxBanded {
		q.heap.Push(e)
	} else {
		i := q.alloc()
		*q.ent(i) = e
		q.link(band, i)
	}
	if q.pushes++; q.pushes == winEpoch {
		q.adapt()
	}
}

// activate builds the band table and picks the first band width from
// the keys the heap holds. They stay in the heap and drain from there.
func (q *KeyWindow[V]) activate() {
	//schedlint:ignore the band table, once per queue that reaches winActivate entries
	q.heads = make([]uint32, winBands)
	//schedlint:ignore the occupancy bitmap, allocated with the band table
	q.occ = make([]uint64, winBands/64)
	lo, hi := ukey(q.heap.a[0].Key), uint64(0)
	for _, e := range q.heap.a {
		hi = max(hi, ukey(e.Key))
	}
	q.shift = fitShift(hi - lo)
}

// adapt closes an epoch: it re-derives the band width from where the
// epoch's pushes landed. The width grows when a real share of them fell
// past the window's end, and shrinks when all of them fit in a quarter
// of it — narrower bands mean shorter chains to scan — each time to the
// width at which the epoch's span fills half to all of the window, so a
// steady stream settles after one move. An epoch pushed mostly below the
// window start says nothing about the width.
func (q *KeyWindow[V]) adapt() {
	if q.ahead >= winEpoch/2 {
		want := fitShift(q.hiOff)
		if (want > q.shift && q.above > winEpoch/8) || want+1 < q.shift {
			q.reband(want)
		}
	}
	q.pushes, q.ahead, q.above, q.hiOff = 0, 0, 0, 0
}

// reband re-links every banded entry under a new band width. The window
// restarts at the smallest banded key; entries the new window does not
// reach move to the heap.
func (q *KeyWindow[V]) reband(shift uint8) {
	var all uint32
	lo := ^uint64(0)
	for w, word := range q.occ {
		for ; word != 0; word &= word - 1 {
			s := w<<6 + bits.TrailingZeros64(word)
			for i := q.heads[s]; i != 0; {
				np := q.next(i)
				i, *np, all = *np, all, i
				lo = min(lo, ukey(q.ent(all).Key))
			}
			q.heads[s] = 0
		}
		q.occ[w] = 0
	}
	q.shift, q.n, q.cur, q.top = shift, 0, lo>>shift, lo>>shift
	for i := all; i != 0; {
		e, rest := q.ent(i), *q.next(i)
		if band := ukey(e.Key) >> shift; band-q.cur < winBands {
			q.link(band, i)
		} else {
			q.heap.Push(*e)
			q.release(i)
		}
		i = rest
	}
}

// alloc hands out a node index, reusing a released node first.
func (q *KeyWindow[V]) alloc() uint32 {
	if i := q.free; i != 0 {
		q.free = *q.next(i)
		return i
	}
	i := q.used
	if int(i>>winChunkBits) == len(q.nodes) {
		//schedlint:ignore one pool chunk per 1024 nodes of growth, kept for reuse
		q.nodes = append(q.nodes, new(winChunk[V]))
	}
	q.used++
	return i
}

// release zeroes a node's entry (dropping its reference for GC) and
// frees the node.
func (q *KeyWindow[V]) release(i uint32) {
	*q.ent(i) = Keyed[V]{}
	*q.next(i), q.free = q.free, i
}

// link puts node i at the head of its band's chain.
func (q *KeyWindow[V]) link(band uint64, i uint32) {
	s := band & winMask
	*q.next(i), q.heads[s] = q.heads[s], i
	q.occ[s>>6] |= 1 << (s & 63)
	q.top = max(q.top, band)
	q.n++
}

// front locates the smallest banded entry: its band slot, its node and
// the node before it in the chain (0 at the head). It slides the window
// start up to that band. Only valid when n > 0.
func (q *KeyWindow[V]) front() (slot uint64, prev, best uint32) {
	s := q.cur & winMask
	w := s >> 6
	word := q.occ[w] &^ (1<<(s&63) - 1)
	for word == 0 {
		// Occupied bands all lie within winBands of cur, so slot order
		// from s around the table is band order.
		w = (w + 1) & (winBands/64 - 1)
		word = q.occ[w]
	}
	slot = w<<6 + uint64(bits.TrailingZeros64(word))
	q.cur += (slot - s) & winMask
	best = q.heads[slot]
	if q.shift == 0 {
		return slot, 0, best // a band of width one holds equal keys
	}
	bk := q.ent(best).Key
	for p, i := best, *q.next(best); i != 0; p, i = i, *q.next(i) {
		if k := q.ent(i).Key; k < bk {
			prev, best, bk = p, i, k
		}
	}
	return slot, prev, best
}

// Pop removes and returns an entry with the minimum key.
//
//schedlint:hotpath
func (q *KeyWindow[V]) Pop() (top Keyed[V], ok bool) {
	if q.n == 0 {
		return q.heap.Pop()
	}
	slot, prev, best := q.front()
	top = *q.ent(best)
	if h, any := q.heap.Peek(); any && h.Key < top.Key {
		return q.heap.Pop()
	}
	switch rest := *q.next(best); {
	case prev != 0:
		*q.next(prev) = rest
	case rest != 0:
		q.heads[slot] = rest
	default:
		q.heads[slot] = 0
		q.occ[slot>>6] &^= 1 << (slot & 63)
	}
	q.release(best)
	q.n--
	return top, true
}

// Peek returns an entry with the minimum key without removing it.
func (q *KeyWindow[V]) Peek() (top Keyed[V], ok bool) {
	if q.n == 0 {
		return q.heap.Peek()
	}
	_, _, best := q.front()
	top = *q.ent(best)
	if h, any := q.heap.Peek(); any && h.Key < top.Key {
		return h, true
	}
	return top, true
}

// Clear removes all elements but keeps the tables and chunks.
func (q *KeyWindow[V]) Clear() {
	q.heap.Clear()
	clear(q.heads)
	clear(q.occ)
	for _, c := range q.nodes {
		*c = winChunk[V]{}
	}
	q.used, q.free, q.n = 1, 0, 0
	q.pushes, q.ahead, q.above, q.hiOff = 0, 0, 0, 0
}

var _ Queue[Keyed[int]] = (*KeyWindow[int])(nil)
