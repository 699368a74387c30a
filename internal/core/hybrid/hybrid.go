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
// Lists are realized as linked lists of blocks (§4.2.3), each a list node
// plus a slab holding up to blockSize items inline: a push allocates two
// objects per blockSize tasks, and the references in the priority queues
// are interior pointers into the slabs. In the paper items carry
// per-place index tags to guard the taken flag against ABA under item
// reuse; with Go's GC items are never reused, so a plain CAS-able taken
// flag suffices (see DESIGN.md, substitutions).
//
// Memory: nothing roots the global list, so a list node is collectable
// once every place's iterator has moved past it. Iterators advance on
// pop and on publication only: a place that never pushes or pops keeps
// the chain from its iterator onwards alive. A slab (the payloads of its
// blockSize tasks included) lives until no priority queue references
// one of its items; a reference to a task another place took is dropped
// when it reaches the top of its queue. The slab is a separate object
// from the node because such a reference can sit in a queue for long:
// it may pin its slab, but must not pin the next link and with it every
// block published since.
package hybrid

import (
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pq"
	"repro/internal/xrand"
)

// blockSize is the most item slots a list block has: one node, one slab
// and one pointer chase per 64 tasks during pushes, scans and spying.
const blockSize = 64

// maxSpyBlocks caps how many blocks a single spy attempt traverses. A spy
// can race with the victim publishing its list, in which case the chain it
// holds becomes part of the global list and grows; the model allows
// spurious failure, so bounding the walk is safe.
const maxSpyBlocks = 1024

// item is a task plus the taken flag.
type item[T any] struct {
	taken atomic.Int32
	v     T
}

// block is one node of a block list. All its items were pushed by owner
// (so the owner's scans skip the block: it referenced them at push
// time). items is the slab, allocated by the first push into the block;
// items[i] for i < n.Load() are fully published: the owner writes the
// slab and the slot before release-storing n, and readers acquire-load n
// before reading either.
type block[T any] struct {
	n     atomic.Int32
	owner int32
	next  atomic.Pointer[block[T]]
	items []item[T]
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
	pq        pq.Queue[pq.Keyed[*item[T]]]
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
		opts:   opts,
		noSpy:  noSpy,
		places: make([]*place[T], opts.Places),
		ctrs:   make([]core.Counters, opts.Places),
	}
	// The global list starts at an empty sentinel block. Only the
	// iterators and the tail hint hold it: the structure keeps no head, or
	// every block ever published would stay reachable.
	sentinel := &block[T]{owner: -1}
	d.globalTail.Store(sentinel)
	seeds := xrand.New(opts.Seed)
	for i := range d.places {
		p := &place[T]{
			id:        int32(i),
			rng:       seeds.Split(),
			remaining: math.MaxInt64,
			giter:     cursor[T]{b: sentinel},
		}
		p.lastHit.Store(int32((i + 1) % opts.Places))
		p.pq = core.NewLocalQueue(opts.Prio != nil, func(a, b pq.Keyed[*item[T]]) bool {
			return opts.Less(a.V.v, b.V.v)
		})
		p.listTail = &block[T]{owner: p.id}
		p.listHead.Store(p.listTail)
		d.places[i] = p
	}
	return d, nil
}

// ref is the local-queue reference to it.
func (d *DS[T]) ref(it *item[T]) pq.Keyed[*item[T]] {
	return pq.Keyed[*item[T]]{Key: d.opts.Key(it.v), V: it}
}

// Push stores v with relaxation parameter k (Listing 3).
//
//schedlint:hotpath
func (d *DS[T]) Push(pl int, k int, v T) {
	p := d.places[pl]

	// remaining_k = min(remaining_k − 1, k): the strictest pending task
	// dictates when the local list must become globally visible.
	rem := min(p.remaining-1, int64(k))
	p.remaining = rem

	// Place the task in the local list and the local priority queue.
	tailBlk := p.listTail
	n := tailBlk.n.Load()
	if int(n) == len(tailBlk.items) {
		if n > 0 {
			//schedlint:ignore one list node per slab
			nb := &block[T]{owner: p.id}
			tailBlk.next.Store(nb)
			p.listTail = nb
			tailBlk, n = nb, 0
		}
		// The list takes this task and at most rem more before it is
		// published, so a small k gets a small slab.
		//schedlint:ignore one slab per blockSize pushes, or per publication when k is smaller: the items live inline in it
		tailBlk.items = make([]item[T], min(max(rem, 0)+1, blockSize))
	}
	it := &tailBlk.items[n]
	it.v = v
	tailBlk.n.Store(n + 1) // release: publishes items[n] to spies
	p.pq.Push(d.ref(it))
	d.ctrs[pl].Pushes.Add(1)

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
	//schedlint:ignore one list node per publication (every k+1 pushes) starts the next local list
	fresh := &block[T]{owner: p.id}
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
// local priority queue, skipping the place's own blocks (already
// referenced at push time) and items already taken.
//
//schedlint:hotpath
func (d *DS[T]) processGlobalList(pl int, p *place[T]) {
	cur := p.giter
	for {
		// Blocks reachable from the global list are frozen: a place stops
		// appending to a chain before publishing it, so n is final here.
		n := cur.b.n.Load()
		if cur.b.owner == p.id {
			cur.idx = n
		}
		for ; cur.idx < n; cur.idx++ {
			if it := &cur.b.items[cur.idx]; it.taken.Load() == 0 {
				p.pq.Push(d.ref(it))
			}
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
//
//schedlint:hotpath
func (d *DS[T]) Pop(pl int) (v T, ok bool) {
	p := d.places[pl]
	c := &d.ctrs[pl]
	for {
		d.processGlobalList(pl, p)
		for {
			e, any := p.pq.Pop()
			if !any {
				break
			}
			it := e.V
			if it.taken.Load() != 0 {
				continue
			}
			if d.opts.Stale != nil && d.opts.Stale(it.v) {
				if it.taken.CompareAndSwap(0, 1) {
					c.Eliminated.Add(1)
					if d.opts.OnEliminate != nil {
						d.opts.OnEliminate(pl, it.v)
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
		// A victim that publishes mid-walk splices this chain into the
		// global list, where the spy's own blocks may follow.
		if blk.owner != p.id {
			n := blk.n.Load()
			for i := int32(0); i < n; i++ {
				if it := &blk.items[i]; it.taken.Load() == 0 {
					p.pq.Push(d.ref(it))
					got++
				}
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
