// Package hybrid implements the hybrid k-priority data structure of
// Sections 3.3 and 4.2, combining work-stealing-style locality with the
// ρ-relaxation of the centralized structure.
//
// Components (Figure 2): (a) a global list of items visible to all places,
// (b) one local item list per place holding up to k items that are not yet
// guaranteed to be globally visible, and (c) one sequential priority queue
// per place holding references to items from both lists.
//
// A place pushes into its local list and decrements its remaining-k
// budget (remaining_k = min(remaining_k − 1, k), Listing 3); when the
// budget reaches zero the entire local list is appended to the global list
// with a single CAS and a fresh local list is started. Pops (Listing 4)
// catch up with the global list, then repeatedly take the locally-minimal
// referenced item via test-and-set on its taken flag. An idle place spies
// on a semi-random victim's local list: unlike stealing, spying only
// copies references — the items remain in the owner's list, so the same
// task may be visible to several places at once (which is also why the
// wasted work stays roughly half of work-stealing's even for very large k,
// §5.5).
//
// ρ-relaxation guarantee (§2.2): each place can hide at most the k newest
// items it pushed, so a pop misses at most ρ = P·k items in total.
//
// Lists are realized as linked lists of fixed-size blocks (§4.2.3). In the
// paper items carry per-place index tags to guard the taken flag against
// ABA under item reuse; with Go's GC items are never reused, so a plain
// CAS-able taken flag suffices (see DESIGN.md, substitutions).
package hybrid

import (
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pq"
	"repro/internal/xrand"
)

// blockSize is the number of item slots per list block. 64 pointers fill
// one 512-byte span, amortizing the pointer chase during scans and spying.
const blockSize = 64

// maxSpyBlocks caps how many blocks a single spy attempt traverses. A spy
// can race with the victim publishing its list, in which case the chain it
// holds becomes part of the global list and grows; the model allows
// spurious failure, so bounding the walk is safe.
const maxSpyBlocks = 1024

// item is a task plus the owner place (so scans skip items the owner
// already referenced at push time) and the taken flag.
type item[T any] struct {
	taken atomic.Int32
	place int32
	v     T
}

// block is one node of a block list. items[i] for i < n.Load() are fully
// published: the owner writes the slot before release-storing n, and
// readers acquire-load n before reading slots.
type block[T any] struct {
	n     atomic.Int32
	next  atomic.Pointer[block[T]]
	items [blockSize]*item[T]
}

// cursor addresses a position inside a block chain.
type cursor[T any] struct {
	b   *block[T]
	idx int32
}

// place is the local component of one place.
type place[T any] struct {
	id        int32
	rng       *xrand.Rand
	pq        pq.Queue[*item[T]]
	listHead  atomic.Pointer[block[T]] // current local list (atomic: spied upon)
	listTail  *block[T]                // owner-private
	remaining int64                    // owner-private remaining_k budget
	giter     cursor[T]                // owner-private global-list iterator
	lastHit   atomic.Int32             // last successful spy victim (read by peers)
}

// DS is the hybrid k-priority data structure. It implements core.DS.
type DS[T any] struct {
	opts       core.Options[T]
	noSpy      bool
	globalHead *block[T]                // sentinel
	globalTail atomic.Pointer[block[T]] // hint; the true tail is found by walking next
	places     []*place[T]
	ctrs       []core.Counters
}

// New constructs the data structure for opts.Places places.
func New[T any](opts core.Options[T]) (*DS[T], error) {
	return newDS(opts, false)
}

// NewNoSpy constructs an ablation variant with spying disabled: idle
// places see only the published global list, so the up-to-k unpublished
// tasks of each place can only run at their birth place. Not part of the
// paper; used by the ABL-SPY benchmarks to isolate the contribution of
// spying (which the paper credits for halving wasted work at large k,
// §5.5).
func NewNoSpy[T any](opts core.Options[T]) (*DS[T], error) {
	return newDS(opts, true)
}

func newDS[T any](opts core.Options[T], noSpy bool) (*DS[T], error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	d := &DS[T]{
		opts:       opts,
		noSpy:      noSpy,
		globalHead: &block[T]{},
		places:     make([]*place[T], opts.Places),
		ctrs:       make([]core.Counters, opts.Places),
	}
	// The sentinel is "full" so iterators skip it uniformly.
	d.globalHead.n.Store(blockSize)
	d.globalTail.Store(d.globalHead)
	seeds := xrand.New(opts.Seed)
	for i := range d.places {
		p := &place[T]{
			id:        int32(i),
			rng:       seeds.Split(),
			remaining: math.MaxInt64,
			giter:     cursor[T]{b: d.globalHead, idx: blockSize},
		}
		p.lastHit.Store(int32((i + 1) % opts.Places))
		p.pq = core.NewLocalQueue(opts.LocalQueue, func(a, b *item[T]) bool {
			return opts.Less(a.v, b.v)
		}, p.rng.Uint64())
		p.listHead.Store(&block[T]{})
		p.listTail = p.listHead.Load()
		d.places[i] = p
	}
	return d, nil
}

// Push stores v with relaxation parameter k (Listing 3).
func (d *DS[T]) Push(pl int, k int, v T) {
	p := d.places[pl]
	it := &item[T]{place: p.id, v: v}

	// Place the task in the local list and the local priority queue.
	tailBlk := p.listTail
	n := tailBlk.n.Load()
	if n == blockSize {
		nb := &block[T]{}
		tailBlk.next.Store(nb)
		p.listTail = nb
		tailBlk, n = nb, 0
	}
	tailBlk.items[n] = it
	tailBlk.n.Store(n + 1) // release: publishes items[n] to spies
	p.pq.Push(it)
	d.ctrs[pl].Pushes.Add(1)

	// remaining_k = min(remaining_k − 1, k): the strictest pending task
	// dictates when the local list must become globally visible.
	rem := p.remaining - 1
	if int64(k) < rem {
		rem = int64(k)
	}
	p.remaining = rem
	if rem <= 0 {
		d.publish(pl, p)
	}
}

// publish appends the local list to the global list and starts a new one.
func (d *DS[T]) publish(pl int, p *place[T]) {
	head := p.listHead.Load()
	for {
		// Read the entire global list first: the CAS below can only be
		// linearized after this place has seen all previously published
		// tasks (Listing 3, the do/while around processGlobalList).
		d.processGlobalList(pl, p)
		t := d.findTail()
		if t.next.CompareAndSwap(nil, head) {
			d.globalTail.CompareAndSwap(t, p.listTail)
			break
		}
	}
	fresh := &block[T]{}
	p.listHead.Store(fresh)
	p.listTail = fresh
	p.remaining = math.MaxInt64
	d.ctrs[pl].Publishes.Add(1)
}

// findTail locates the true tail block of the global list, advancing the
// hint on the way (Michael–Scott style helping).
func (d *DS[T]) findTail() *block[T] {
	t := d.globalTail.Load()
	for {
		next := t.next.Load()
		if next == nil {
			return t
		}
		d.globalTail.CompareAndSwap(t, next)
		t = next
	}
}

// processGlobalList adds references to all unread global items to the
// local priority queue, skipping the place's own items (already referenced
// at push time) and items already taken.
func (d *DS[T]) processGlobalList(pl int, p *place[T]) {
	cur := p.giter
	for {
		// Blocks reachable from the global list are frozen: a place stops
		// appending to a chain before publishing it, so n is final here.
		n := cur.b.n.Load()
		for cur.idx < n {
			it := cur.b.items[cur.idx]
			if it.place != p.id && it.taken.Load() == 0 {
				p.pq.Push(it)
			}
			cur.idx++
		}
		next := cur.b.next.Load()
		if next == nil {
			break
		}
		cur = cursor[T]{b: next}
	}
	p.giter = cur
}

// Pop removes and returns a task (Listing 4).
func (d *DS[T]) Pop(pl int) (v T, ok bool) {
	p := d.places[pl]
	c := &d.ctrs[pl]
	for {
		d.processGlobalList(pl, p)
		for {
			it, any := p.pq.Pop()
			if !any {
				break
			}
			if it.taken.Load() != 0 {
				continue
			}
			if d.opts.Stale != nil && d.opts.Stale(it.v) {
				if it.taken.CompareAndSwap(0, 1) {
					c.Eliminated.Add(1)
					if d.opts.OnEliminate != nil {
						d.opts.OnEliminate(it.v)
					}
				}
				continue
			}
			v = it.v
			if it.taken.CompareAndSwap(0, 1) {
				c.Pops.Add(1)
				return v, true
			}
			d.processGlobalList(pl, p)
		}
		// Local priority queue exhausted: spy on another place.
		if !d.spy(pl, p) {
			c.PopFailures.Add(1)
			var zero T
			return zero, false
		}
	}
}

// spy copies references to live tasks from a semi-random victim's local
// list (without removing them, §4.2.2). A victim with no visible local
// work is substituted by its own last successful spying victim (§4.2.3).
// Returns whether any reference was added.
func (d *DS[T]) spy(pl int, p *place[T]) bool {
	if d.noSpy || len(d.places) == 1 {
		return false
	}
	c := &d.ctrs[pl]
	c.Spies.Add(1)

	vi := p.rng.Intn(len(d.places) - 1)
	if vi >= pl {
		vi++
	}
	victim := d.places[vi]
	if d.localListLooksEmpty(victim) {
		// Spying leaves tasks with their owner, so a busy place can look
		// idle; follow the victim's own last successful victim instead.
		fwd := int(victim.lastHit.Load())
		if fwd != pl && fwd != vi && fwd >= 0 && fwd < len(d.places) {
			vi = fwd
			victim = d.places[vi]
		}
	}

	got := 0
	blk := victim.listHead.Load()
	for hops := 0; blk != nil && hops < maxSpyBlocks; hops++ {
		n := blk.n.Load()
		for i := int32(0); i < n; i++ {
			it := blk.items[i]
			if it.place != p.id && it.taken.Load() == 0 {
				p.pq.Push(it)
				got++
			}
		}
		blk = blk.next.Load()
	}
	if got > 0 {
		p.lastHit.Store(int32(vi))
		c.SpyHits.Add(1)
	}
	return got > 0
}

// localListLooksEmpty is a racy, cheap check whether a place currently
// exposes any unpublished local tasks.
func (d *DS[T]) localListLooksEmpty(p *place[T]) bool {
	head := p.listHead.Load()
	return head.n.Load() == 0 && head.next.Load() == nil
}

// Stats aggregates the per-place counters.
func (d *DS[T]) Stats() core.Stats { return core.SumCounters(d.ctrs) }

// PushK and PopKInto loop over the single-task operations: the hybrid
// structure's k-bound triggers publication per insertion (a push may
// have to append the local list to the global one), so batching cannot
// elide the per-task bookkeeping.

// PushK stores every element of vs via the single-task path.
func (d *DS[T]) PushK(pl int, k int, vs []T) { core.PushKViaSingles[T](d, pl, k, vs) }

// PopKInto fills out via the single-task path without allocating; the
// caller owns the buffer.
func (d *DS[T]) PopKInto(pl int, out []T) int { return core.PopKIntoViaSingles[T](d, pl, out) }

var _ core.DS[int] = (*DS[int])(nil)
