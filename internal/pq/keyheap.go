package pq

// Keyed pairs a value with its priority projected to an integer key
// (smaller first). The place-local queues of the k-priority structures
// and the relaxed lanes store Keyed entries so the key is computed
// once, when the entry is made, instead of on every heap comparison.
type Keyed[V any] struct {
	Key int64
	V   V
}

// KeyHeap is a 4-ary min-heap of Keyed entries ordered by Key alone:
// comparisons are inlined integer compares, never a call. Entries with
// equal keys pop in unspecified order.
//
// The entries sit in one contiguous slice, doubled when full, with the
// root at slot 0 and the children of slot i at 4i+1 … 4i+4, so an idle
// heap costs what it has held — a relaxed lane that never saw more than
// a few tasks owns a few entries. The backing array is kept across Pop
// and Clear for reuse; vacated slots are zeroed so the heap never pins
// a payload it has handed out.
type KeyHeap[V any] struct {
	a []Keyed[V]
}

// NewKeyHeap returns an empty heap.
func NewKeyHeap[V any]() *KeyHeap[V] {
	return &KeyHeap[V]{}
}

// Len reports the number of stored elements.
func (h *KeyHeap[V]) Len() int { return len(h.a) }

// Push inserts e.
//
//schedlint:hotpath
func (h *KeyHeap[V]) Push(e Keyed[V]) {
	i := len(h.a)
	if i == cap(h.a) {
		// Double, by asking append for as much again: left to itself it
		// grows by a quarter past 256 entries, and a queue that climbs to
		// n entries that way has allocated about 5n, nearly all of it
		// garbage that a structure built for one solve leaves to the
		// collector. Doubling allocates between 2n and 4n.
		//schedlint:ignore amortized doubling of the one backing array, kept for reuse across Pop and Clear
		h.a = append(h.a, make([]Keyed[V], i+4)...)[:i]
	}
	a := h.a[:i+1]
	h.a = a
	for i > 0 {
		parent := (i - 1) >> 2
		if a[parent].Key <= e.Key {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = e
}

// Pop removes and returns an entry with the minimum key. It is kept
// small enough to inline (as is Push): the entry is then copied from the
// root slot straight into the caller's variable and only the sift is a
// call, where a Keyed returned from a call comes back in registers,
// field by field, to be put together again in memory — which for the
// relaxed lanes' 40-byte entries costs as much as the sift.
//
//schedlint:hotpath
func (h *KeyHeap[V]) Pop() (top Keyed[V], ok bool) {
	if len(h.a) == 0 {
		return
	}
	top = h.a[0]
	h.dropRoot()
	return top, true
}

// dropRoot removes the root of a non-empty heap: the last entry leaves
// its slot, and the hole at the root sifts down, the smallest child
// moving up, until that entry fits.
//
//schedlint:hotpath
func (h *KeyHeap[V]) dropRoot() {
	a := h.a
	end := len(a) - 1
	e := a[end]
	a[end] = Keyed[V]{} // release the reference for GC
	a = a[:end]
	h.a = a
	if end == 0 {
		return
	}
	i := 0
	for {
		g := i<<2 + 1
		if g >= end {
			break
		}
		m, mk := g, a[g].Key
		if g+3 < end {
			grp := (*[4]Keyed[V])(a[g:])
			if k := grp[1].Key; k < mk {
				m, mk = g+1, k
			}
			if k := grp[2].Key; k < mk {
				m, mk = g+2, k
			}
			if k := grp[3].Key; k < mk {
				m, mk = g+3, k
			}
		} else {
			for j := g + 1; j < end; j++ {
				if k := a[j].Key; k < mk {
					m, mk = j, k
				}
			}
		}
		if e.Key <= mk {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = e
}

// Peek returns an entry with the minimum key without removing it.
func (h *KeyHeap[V]) Peek() (top Keyed[V], ok bool) {
	if len(h.a) == 0 {
		return top, false
	}
	return h.a[0], true
}

// Clear removes all elements but keeps the backing array.
func (h *KeyHeap[V]) Clear() {
	clear(h.a)
	h.a = h.a[:0]
}

var _ Queue[Keyed[int]] = (*KeyHeap[int])(nil)
