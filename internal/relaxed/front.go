package relaxed

import "repro/internal/pq"

// A numeric lane keeps its smallest entries as a sorted run in front of
// its heap: lane.front holds at most frontCap entries in descending key
// order — the lane minimum last — and lane.kh holds everything else, with
//
//	max(front) = front[0].Key ≤ min(kh), and front empty ⇒ kh empty
//
// whenever the lane lock is released. A batch pop is then a copy off the
// end of one contiguous slice, and a batch push one merge pass over the
// part of it below the batch's largest key, where the bare heap paid a
// sift-down per popped entry — each level a dependent load of a line the
// pushing thread had just written. The heap still carries a deep lane:
// past frontCap entries pushes above the front's maximum go straight to
// it and the front is refilled from it half a cap at a time.
//
// frontCap is a constant, not a knob: BenchmarkLane has the depth at
// which the front stops helping.
const frontCap = 64

// pushChunk is how many entries PushK sorts and merges at a time: the
// sort is an insertion sort over keys and indexes held in registers and
// one stack line, never over the entries themselves.
const pushChunk = 8

// growFront returns f moved to a backing array of at least need
// (≤ frontCap) entries. The front grows by doubling from a few entries,
// so an idle lane costs what it has held.
func growFront[T any](f []pq.Keyed[T], need int) []pq.Keyed[T] {
	c := max(2*cap(f), 4)
	for c < need {
		c *= 2
	}
	//schedlint:ignore amortised doubling of the front's one backing array, at most five times a lane's life (4 → frontCap), kept across pops
	g := make([]pq.Keyed[T], len(f), min(c, frontCap))
	copy(g, f)
	return g
}

// push1 inserts one entry: one search and one copy. The task comes by
// pointer: a 32-byte task passed by value crosses the call in registers,
// field by field, and is put back together in memory on the other side,
// which on the serve path costs more than the insert. A key at or above
// the front's maximum goes to the heap when the front may not grow past
// it — the heap is non-empty, or the front is full. A key below it with
// the front full sends that maximum to the heap instead, and the copy
// then shifts the entries above the new one down, not the ones below it
// up. The search is a scan from the minimum: it reads the keys of
// exactly the entries the copy is about to move.
//
//schedlint:hotpath
func (ln *lane[T]) push1(key int64, v *T) {
	f := ln.front
	n := len(f)
	if n > 0 && key >= f[0].Key && (n == frontCap || ln.kh.Len() > 0) {
		ln.kh.Push(pq.Keyed[T]{Key: key, V: *v})
		return
	}
	// p is where the new entry goes: f[:p] ≥ key > f[p:].
	p := n
	for p > 0 && f[p-1].Key < key {
		p--
	}
	if n == frontCap {
		ln.kh.Push(f[0])
		copy(f, f[1:p])
		f[p-1] = pq.Keyed[T]{Key: key, V: *v}
		return
	}
	if n == cap(f) {
		f = growFront(f, n+1)
	}
	f = f[:n+1]
	copy(f[p+1:], f[p:n])
	f[p] = pq.Keyed[T]{Key: key, V: *v}
	ln.front = f
}

// merge inserts vs, at most pushChunk tasks, in one backward pass over
// the front. The batch is sorted by key first; then, largest first, what
// may not enter the front goes to the heap — keys above the front's
// maximum while the heap is non-empty, and, from front and batch
// together, whatever exceeds frontCap. The rest is merged in from the
// front's end (its minimum), so the pass stops at the batch's largest
// entrant and the entries above it are never touched.
//
//schedlint:hotpath
func (ln *lane[T]) merge(prio func(T) int64, vs []T) {
	// Sort by rank: each key is compared with every other once and
	// placed where the count of smaller ones says, ties in batch order —
	// 28 comparisons for a full chunk, none of them a branch.
	var raw, ks [pushChunk]int64
	var rank, ix [pushChunk]uint8
	for i := range vs {
		raw[i] = prio(vs[i])
	}
	for i := 1; i < len(vs); i++ {
		for j := 0; j < i; j++ {
			var c uint8
			if raw[i] < raw[j] {
				c = 1
			}
			rank[j] += c
			rank[i] += 1 - c
		}
	}
	for i := range vs {
		r := rank[i] & (pushChunk - 1) // rank < len(vs) ≤ pushChunk; the mask spares the bounds checks
		ks[r], ix[r] = raw[i], uint8(i)
	}
	f := ln.front
	n, m := len(f), len(vs)
	if ln.kh.Len() > 0 {
		for top := f[0].Key; m > 0 && ks[m-1] > top; {
			m--
			ln.kh.Push(pq.Keyed[T]{Key: ks[m], V: vs[ix[m]]})
		}
	}
	if over := n + m - frontCap; over > 0 {
		head := 0
		for ; over > 0; over-- {
			if m > 0 && ks[m-1] >= f[head].Key {
				m--
				ln.kh.Push(pq.Keyed[T]{Key: ks[m], V: vs[ix[m]]})
			} else {
				ln.kh.Push(f[head])
				head++
			}
		}
		if head > 0 {
			copy(f, f[head:])
			clear(f[n-head:])
			n -= head
		}
	}
	if n+m > cap(f) {
		f = growFront(f[:n], n+m)
	}
	f = f[:n+m]
	for i, j := n-1, 0; j < m; j++ {
		// The front entries below the j-th entrant make room for it and
		// the m-j-1 entrants above it.
		up := m - j
		for ; i >= 0 && f[i].Key < ks[j]; i-- {
			f[i+up] = f[i]
		}
		f[i+up] = pq.Keyed[T]{Key: ks[j], V: vs[ix[j]]}
	}
	ln.front = f
}

// refill moves the heap's smallest entries, up to half of frontCap, into
// the empty front and reports whether there were any. Half, so that a
// deep lane's front has room for the keys that arrive below its maximum
// before it has to send its largest back.
//
//schedlint:hotpath
func (ln *lane[T]) refill() bool {
	k := min(ln.kh.Len(), frontCap/2)
	if k == 0 {
		return false
	}
	f := ln.front
	if k > cap(f) {
		f = growFront(f, k)
	}
	f = f[:k]
	for i := k - 1; i >= 0; i-- {
		f[i], _ = ln.kh.Pop()
	}
	ln.front = f
	return true
}
