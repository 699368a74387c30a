package pq

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// bandedWindow returns an empty KeyWindow whose band table is already
// built, with bands two keys wide over the generic suite's int16 domain
// — so the suite's small queues run on the bucket front, chain scans
// included, instead of on the fallback heap.
func bandedWindow() *KeyWindow[int] {
	q := NewKeyWindow[int]()
	for i := 0; i < winActivate; i++ {
		k := math.MinInt16 + i*(1<<16-1)/(winActivate-1)
		q.Push(Keyed[int]{Key: int64(k), V: k})
	}
	for q.Len() > 0 {
		q.Pop()
	}
	return q
}

// keyStreams are the key sources of the differential scripts. Each
// draws the next key to push from the last key popped (0 at the start)
// and the push's ordinal.
var keyStreams = []struct {
	name string
	next func(r *xrand.Rand, last int64, i int) int64
}{
	{"mixed-with-extremes", func(r *xrand.Rand, _ int64, _ int) int64 { return scriptKey(r) }},
	{"all-equal", func(*xrand.Rand, int64, int) int64 { return 7 }},
	{"strictly-descending", func(_ *xrand.Rand, _ int64, i int) int64 { return math.MaxInt64/2 - int64(i) }},
	{"hold-with-pushes-below-the-last-pop", func(r *xrand.Rand, last int64, _ int) int64 {
		if r.Intn(8) == 0 {
			return last - int64(r.Intn(1<<12))
		}
		return last + int64(r.Intn(1<<20))
	}},
	{"hold-with-far-jumps", func(r *xrand.Rand, last int64, _ int) int64 {
		if r.Intn(512) == 0 {
			return last + 1<<44 + int64(r.Intn(1<<30))
		}
		return last + int64(r.Intn(1<<10))
	}},
	{"float-bit-distances", func(r *xrand.Rand, last int64, _ int) int64 {
		d := math.Float64frombits(uint64(last))
		return int64(math.Float64bits(d + r.Float64()*r.Float64()))
	}},
	{"fixed-point-distances", func(r *xrand.Rand, last int64, _ int) int64 {
		return last + int64(r.Float64()*(1<<40))
	}},
}

// TestKeyWindowMatchesKeyHeap drives a KeyWindow and a KeyHeap with the
// same push/pop script over every key stream, draining both at the end.
// Ties pop in unspecified order, so the two must agree on every popped
// key, and the window must hand out each pushed entry exactly once,
// under the key it was pushed with. Scripts are long enough to build the
// band table and to close several adaptation epochs.
func TestKeyWindowMatchesKeyHeap(t *testing.T) {
	for _, ks := range keyStreams {
		t.Run(ks.name, func(t *testing.T) {
			banded := false
			f := func(seed uint64, steps uint16) bool {
				r := xrand.New(seed)
				q := NewKeyWindow[int]()
				o := NewKeyHeap[int]()
				live := map[int]int64{} // value -> key, for entries still inside
				var last int64
				pop := func() bool {
					a, aok := q.Pop()
					b, bok := o.Pop()
					key, pushed := live[a.V]
					delete(live, a.V)
					last = b.Key
					return aok && bok && a.Key == b.Key && pushed && key == a.Key
				}
				// Grow to a few thousand entries, then hold: pops and
				// pushes alternate, which is where the window slides.
				depth := 1500 + int(steps)%3000
				for i := 0; i < 3*winEpoch+int(steps)%winEpoch; i++ {
					if o.Len() < depth || r.Intn(2) == 0 {
						e := Keyed[int]{Key: ks.next(r, last, i), V: i}
						live[e.V] = e.Key
						q.Push(e)
						o.Push(e)
					} else if !pop() {
						return false
					}
					if q.Len() != o.Len() {
						return false
					}
					if p, ok := q.Peek(); i%64 == 0 && ok {
						if ref, _ := o.Peek(); p.Key != ref.Key {
							return false
						}
					}
				}
				banded = banded || q.n > 0
				for o.Len() > 0 {
					if !pop() {
						return false
					}
				}
				_, more := q.Pop()
				return !more && q.Len() == 0 && len(live) == 0
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
				t.Fatal(err)
			}
			if !banded {
				t.Fatal("no script ever put an entry in the bands: the bucket front went untested")
			}
		})
	}
}

// chainStats walks the band table: the longest chain and the number of
// banded entries found.
func chainStats[V any](q *KeyWindow[V]) (longest, total int) {
	for _, h := range q.heads {
		n := 0
		for i := h; i != 0; i = *q.next(i) {
			n++
		}
		longest, total = max(longest, n), total+n
	}
	return longest, total
}

// TestKeyWindowHoldModel holds a queue at a few thousand entries while
// the minimum advances across many window lengths, and changes the
// scale of the increments twice, so the window slides around its table
// repeatedly and re-derives its band width in both directions. Order is
// checked against a KeyHeap throughout, and the band width must follow
// the stream: once the queue's contents are of the stream's scale they
// sit in the bands, in short chains, with next to nothing in the
// fallback heap. (After the scale drops, the old far entries wait in the
// heap until the minimum reaches them — millions of pops away — so the
// last phase checks the width only.)
func TestKeyWindowHoldModel(t *testing.T) {
	const depth = 4000
	q, o := NewKeyWindow[int](), NewKeyHeap[int]()
	r := xrand.New(3)
	id := 0
	push := func(k int64) {
		e := Keyed[int]{Key: k, V: id}
		id++
		q.Push(e)
		o.Push(e)
	}
	for i := 0; i < depth; i++ {
		push(int64(r.Intn(1 << 20)))
	}
	var shifts []uint8
	for phase, scale := range []int{1 << 20, 1 << 34, 1 << 12} {
		var first, last int64
		for i := 0; i < 40*winEpoch; i++ {
			a, _ := q.Pop()
			b, _ := o.Pop()
			if a.Key != b.Key {
				t.Fatalf("phase %d op %d: popped key %d, heap says %d", phase, i, a.Key, b.Key)
			}
			if i == 0 {
				first = a.Key
			}
			last = a.Key
			push(a.Key + int64(r.Intn(scale)))
		}
		shifts = append(shifts, q.shift)
		longest, total := chainStats(q)
		if total != q.n || q.n+q.heap.Len() != depth {
			t.Fatalf("phase %d: %d entries chained, n = %d, heap %d, want %d in all", phase, total, q.n, q.heap.Len(), depth)
		}
		if phase == 2 {
			break
		}
		if q.n < depth*9/10 || longest > 16 {
			t.Errorf("phase %d (increments below %d): shift %d leaves %d of %d entries banded, longest chain %d",
				phase, scale, q.shift, q.n, depth, longest)
		}
		if windows := uint64(last-first) >> q.shift / winBands; windows < 3 {
			t.Errorf("phase %d: the minimum advanced only %d window lengths; the test wants several", phase, windows)
		}
	}
	if !(shifts[0] < shifts[1] && shifts[2] < shifts[0]) {
		t.Errorf("band width did not follow the increment scales 2^20, 2^34, 2^12: shifts %v", shifts)
	}
}

// TestKeyWindowRecoversFromCoarseBands: a first band width read off a
// span far wider than the stream that follows (here one stray huge key
// among small ones at activation) puts every entry in a few bands; the
// first epoch must narrow the bands, or every pop scans a long chain.
func TestKeyWindowRecoversFromCoarseBands(t *testing.T) {
	q := NewKeyWindow[int]()
	r := xrand.New(9)
	q.Push(Keyed[int]{Key: 1 << 60})
	for i := 1; i < 3000; i++ {
		q.Push(Keyed[int]{Key: int64(r.Intn(1 << 16)), V: i})
	}
	coarse := q.shift
	for i := 0; i < 3*winEpoch; i++ {
		e, _ := q.Pop()
		q.Push(Keyed[int]{Key: e.Key + int64(r.Intn(1<<16)), V: i})
	}
	if longest, _ := chainStats(q); q.shift >= coarse || longest > 16 {
		t.Fatalf("shift %d at activation, %d three epochs later, longest chain %d", coarse, q.shift, longest)
	}
}

// TestKeyWindowSpillsPastMaxBanded: a queue deeper than the band table
// should hold keeps the excess in the heap — chains stay bounded — and
// still drains in key order.
func TestKeyWindowSpillsPastMaxBanded(t *testing.T) {
	q := NewKeyWindow[int]()
	r := xrand.New(13)
	const n = winMaxBanded + 3*winEpoch
	for i := 0; i < n; i++ {
		q.Push(Keyed[int]{Key: int64(r.Intn(1 << 24)), V: i})
		if q.n > winMaxBanded {
			t.Fatalf("%d entries banded after %d pushes, cap %d", q.n, i+1, winMaxBanded)
		}
	}
	if longest, _ := chainStats(q); q.n != winMaxBanded || q.heap.Len() != n-winMaxBanded || longest > 32 {
		t.Fatalf("%d banded, %d in the heap, longest chain %d", q.n, q.heap.Len(), longest)
	}
	last := int64(math.MinInt64)
	for i := 0; i < n; i++ {
		e, ok := q.Pop()
		if !ok || e.Key < last {
			t.Fatalf("pop %d = %v,%v after key %d", i, e, ok, last)
		}
		last = e.Key
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

// TestKeyWindowBuildsTableLazily: the 128 KB band table is only worth
// its allocation for a queue that gets deep; the many small queues a
// process builds must stay on the heap alone.
func TestKeyWindowBuildsTableLazily(t *testing.T) {
	q := NewKeyWindow[int]()
	for round := 0; round < 4; round++ {
		for i := 0; i < winActivate-1; i++ {
			q.Push(Keyed[int]{Key: int64(i), V: i})
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	if q.heads != nil || q.nodes != nil {
		t.Fatalf("a queue that never held %d entries built its band table", winActivate)
	}
	for i := 0; i < winActivate; i++ {
		q.Push(Keyed[int]{Key: int64(i), V: i})
	}
	if q.heads == nil {
		t.Fatalf("no band table at %d entries", winActivate)
	}
}

// TestKeyWindowClearForgetsBandWidth: a cleared queue keeps its band
// table and node chunks but not the band width it adapted to, so a
// refill at another key scale runs exactly as on a new queue — same
// width, same band/heap split, same pops.
func TestKeyWindowClearForgetsBandWidth(t *testing.T) {
	fill := func(q *KeyWindow[int], seed uint64, scale int) {
		r := xrand.New(seed)
		for i := 0; i < 3*winEpoch; i++ {
			q.Push(Keyed[int]{Key: int64(r.Intn(scale)), V: i})
			if i%4 == 3 {
				q.Pop()
			}
		}
	}
	reused := NewKeyWindow[int]()
	fill(reused, 1, 1<<12)
	if reused.heads == nil || reused.shift != 0 {
		t.Fatalf("first fill: band table built %v, shift %d; want a built table at shift 0", reused.heads != nil, reused.shift)
	}
	reused.Clear()
	fresh := NewKeyWindow[int]()
	fill(reused, 2, 1<<40)
	fill(fresh, 2, 1<<40)
	if reused.shift != fresh.shift || reused.n != fresh.n || reused.heap.Len() != fresh.heap.Len() {
		t.Fatalf("cleared queue: shift %d, %d banded, %d in the heap; new queue: shift %d, %d banded, %d in the heap",
			reused.shift, reused.n, reused.heap.Len(), fresh.shift, fresh.n, fresh.heap.Len())
	}
	for i := 0; fresh.Len() > 0; i++ {
		a, _ := reused.Pop()
		b, _ := fresh.Pop()
		if a != b {
			t.Fatalf("pop %d: cleared queue %v, new queue %v", i, a, b)
		}
	}
	if reused.Len() != 0 {
		t.Fatalf("cleared queue holds %d entries after the new one drained", reused.Len())
	}
}

// TestKeyWindowZeroesVacatedNodes: a popped entry's reference must not
// stay in the node pool, or the queue would keep the referent alive for
// the collector long after it was handed out.
func TestKeyWindowZeroesVacatedNodes(t *testing.T) {
	q := NewKeyWindow[*int]()
	r := xrand.New(5)
	held := func() int {
		n := 0
		for _, c := range q.nodes {
			for i := range c.e {
				if c.e[i].V != nil {
					n++
				}
			}
		}
		return n
	}
	const n = 3 * winChunkSize
	for i := 0; i < n; i++ {
		q.Push(Keyed[*int]{Key: int64(r.Intn(1 << 20)), V: new(int)})
	}
	if q.n < winChunkSize {
		t.Fatalf("only %d of %d entries banded; the node pool is barely used", q.n, n)
	}
	for q.Len() > 0 {
		q.Pop()
		if h := held(); h != q.n {
			t.Fatalf("%d entries banded, %d nodes hold a reference", q.n, h)
		}
	}
	for i := 0; i < n; i++ {
		q.Push(Keyed[*int]{Key: int64(i), V: new(int)})
	}
	q.Clear()
	if h := held(); h != 0 || q.Len() != 0 {
		t.Fatalf("Clear left %d references, Len %d", h, q.Len())
	}
}
