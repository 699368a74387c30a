package pq

// Keyed pairs a value with its priority projected to an integer key
// (smaller first). The place-local queues of the k-priority structures
// store Keyed entries so the key is computed once, when a reference is
// created, instead of on every heap comparison.
type Keyed[V any] struct {
	Key int64
	V   V
}

// KeyHeap chunks hold 4096 entries: large enough that the chunk table
// stays a few dozen pointers for the deepest queues an SSSP solve
// builds, small enough that at most one chunk (64 KB at 16-byte
// entries) is slack.
const (
	keyChunkBits = 12
	keyChunkSize = 1 << keyChunkBits
	keyChunkMask = keyChunkSize - 1
)

// keyRoot is the slot of the root. Children of slot i are the four
// slots from 4·(i−2), so every sibling group starts at a multiple of
// four: it never straddles a chunk, and with 16-byte entries it is one
// cache line. Slots 0..2 stay empty.
const keyRoot = 3

// KeyHeap is a 4-ary min-heap of Keyed entries ordered by Key alone:
// comparisons are inlined integer compares, never a call. Entries with
// equal keys pop in unspecified order.
//
// The backing store is a table of fixed-size chunks rather than one
// slice, so growth never copies: a queue that grows to n entries
// allocates n entries' worth of chunks in total (an append-grown slice
// allocates about five times its final size along the way, all of it
// garbage a short-lived structure leaves to the collector). Chunks are
// kept across Pop and Clear for reuse.
type KeyHeap[V any] struct {
	c   []*[keyChunkSize]Keyed[V]
	end int // one past the last used slot; keyRoot when empty
}

// NewKeyHeap returns an empty heap.
func NewKeyHeap[V any]() *KeyHeap[V] {
	return &KeyHeap[V]{end: keyRoot}
}

// Len reports the number of stored elements.
func (h *KeyHeap[V]) Len() int { return h.end - keyRoot }

func (h *KeyHeap[V]) at(i int) *Keyed[V] {
	return &h.c[i>>keyChunkBits][i&keyChunkMask]
}

// Push inserts e.
//
//schedlint:hotpath
func (h *KeyHeap[V]) Push(e Keyed[V]) {
	i := h.end
	if i>>keyChunkBits == len(h.c) {
		//schedlint:ignore one chunk per 4096 entries of growth, kept for reuse across Pop and Clear
		h.c = append(h.c, new([keyChunkSize]Keyed[V]))
	}
	h.end++
	for i > keyRoot {
		parent := i>>2 + 2
		pp := h.at(parent)
		if pp.Key <= e.Key {
			break
		}
		*h.at(i) = *pp
		i = parent
	}
	*h.at(i) = e
}

// Pop removes and returns an entry with the minimum key.
//
//schedlint:hotpath
func (h *KeyHeap[V]) Pop() (top Keyed[V], ok bool) {
	if h.end == keyRoot {
		return top, false
	}
	top = *h.at(keyRoot)
	h.end--
	lp := h.at(h.end)
	e := *lp
	*lp = Keyed[V]{} // release the reference for GC
	if h.end == keyRoot {
		return top, true
	}

	// Sift the hole left by the root down, moving the smallest child up
	// until e fits.
	i, end := keyRoot, h.end
	for {
		g := (i - 2) << 2
		if g >= end {
			break
		}
		grp := (*[4]Keyed[V])(h.c[g>>keyChunkBits][g&keyChunkMask:])
		m, mk := 0, grp[0].Key
		if n := end - g; n >= 4 {
			if k := grp[1].Key; k < mk {
				m, mk = 1, k
			}
			if k := grp[2].Key; k < mk {
				m, mk = 2, k
			}
			if k := grp[3].Key; k < mk {
				m, mk = 3, k
			}
		} else {
			for j := 1; j < n; j++ {
				if k := grp[j].Key; k < mk {
					m, mk = j, k
				}
			}
		}
		if e.Key <= mk {
			break
		}
		*h.at(i) = grp[m]
		i = g + m
	}
	*h.at(i) = e
	return top, true
}

// Peek returns an entry with the minimum key without removing it.
func (h *KeyHeap[V]) Peek() (top Keyed[V], ok bool) {
	if h.end == keyRoot {
		return top, false
	}
	return *h.at(keyRoot), true
}

// Clear removes all elements but keeps the chunks.
func (h *KeyHeap[V]) Clear() {
	for ci, c := range h.c {
		if ci<<keyChunkBits >= h.end {
			break
		}
		*c = [keyChunkSize]Keyed[V]{}
	}
	h.end = keyRoot
}

var _ Queue[Keyed[int]] = (*KeyHeap[int])(nil)
