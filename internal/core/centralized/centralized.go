// Package centralized implements the centralized k-priority data structure
// of Sections 3.2 and 4.1: a single, global priority ordering over all
// tasks in the system, relaxed so that each pop may ignore up to ρ = k of
// the newest tasks.
//
// Layout (Figure 1): one global, logically unbounded array shared by all
// places, realized as a lock-free linked list of segments
// (internal/segarray); plus, per place, a sequential priority queue holding
// references to items in the global array, and a monotone head cursor
// tracking how far the place has scanned the array.
//
// Push (Listing 1) claims a uniformly random free slot within the k-window
// starting at the current tail via CAS, advancing the tail by k when the
// window is full. Pop (Listing 2) first catches the place's priority queue
// up with the global array, then repeatedly takes the locally-minimal item
// by CASing its tag from its position to -1. An item's tag is initialized
// to its array position, which both identifies the expected value for the
// take-CAS and, in the paper's item-reuse scheme, prevents ABA; Go's GC
// removes the reuse hazard but the tag protocol is kept verbatim.
//
// ρ-relaxation guarantee (§2.2): a pop ignores only items after the tail it
// observed, of which there are at most k; therefore at most the top-k items
// by priority can be missed by any single pop.
package centralized

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pq"
	"repro/internal/segarray"
	"repro/internal/xrand"
)

// item augments a task with the bookkeeping of §4.1.1: the owning place
// (so scans can skip items the owner already enqueued locally), the
// per-task k, and the position tag.
type item[T any] struct {
	tag   atomic.Int64 // position in the global array while live; -1 when taken
	place int32
	k     int32
	v     T
}

const takenTag = -1

// ref is a local-priority-queue reference to a global item, carrying the
// tag value expected by the take-CAS (the item's position).
type ref[T any] struct {
	it  *item[T]
	tag int64
}

// place is the local component: sequential priority queue, head cursor,
// private RNG, counters.
type place[T any] struct {
	id  int32
	rng *xrand.Rand
	pq  pq.Queue[pq.Keyed[ref[T]]]
	cur *segarray.Cursor[item[T]]
}

// DS is the centralized k-priority data structure. It implements core.DS.
type DS[T any] struct {
	opts   core.Options[T]
	kmax   int64
	arr    *segarray.Array[item[T]]
	tail   atomic.Int64
	_      [56]byte // keep the hot tail word off neighbouring data
	places []*place[T]
	ctrs   []core.Counters
}

// New constructs the data structure for opts.Places places.
func New[T any](opts core.Options[T]) (*DS[T], error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	d := &DS[T]{
		opts: opts,
		kmax: int64(opts.KMax),
		ctrs: make([]core.Counters, opts.Places),
	}
	d.places = make([]*place[T], opts.Places)
	for i := range d.places {
		d.places[i] = &place[T]{
			id: int32(i),
			pq: core.NewLocalQueue(opts.Prio != nil, func(a, b pq.Keyed[ref[T]]) bool {
				return opts.Less(a.V.it.v, b.V.it.v)
			}),
		}
	}
	d.Reset(opts.Seed)
	return d, nil
}

// Reset empties the structure and re-seeds it. The global array starts
// over at position 0 (a new one: the old one's segments were retired as
// the cursors passed them, and items are allocated per push anyway);
// the local queues keep their storage.
func (d *DS[T]) Reset(seed uint64) {
	// Segment size ≥ kmax keeps window scans within ≤ 2 segments.
	d.arr = segarray.New[item[T]](int(d.kmax), len(d.places))
	d.tail.Store(0)
	seeds := xrand.New(seed)
	for _, p := range d.places {
		p.rng = seeds.Split()
		p.pq.Clear()
		p.cur = d.arr.NewCursor()
	}
}

// ref is the local-queue reference to it at array position pos.
func (d *DS[T]) ref(it *item[T], pos int64) pq.Keyed[ref[T]] {
	return pq.Keyed[ref[T]]{Key: d.opts.Key(it.v), V: ref[T]{it: it, tag: pos}}
}

// Push stores v with relaxation parameter k (Listing 1).
func (d *DS[T]) Push(pl int, k int, v T) {
	p := d.places[pl]
	k64 := int64(core.ClampK(k, int(d.kmax)))
	it := &item[T]{place: p.id, k: int32(k64), v: v}
	for {
		t := d.tail.Load()
		off := int64(p.rng.Intn(int(k64)))
		stale := false
		for i := int64(0); i < k64; i++ {
			pos := t + (off+i)%k64
			slot, ok := d.arr.TrySlot(pos)
			if !ok {
				// The tail value read above is so stale that its window
				// has been fully consumed and retired while this push was
				// preempted; reload the tail and retry.
				stale = true
				break
			}
			if slot.Load() != nil {
				continue
			}
			// Store pos in the tag field before publication; the tag both
			// names the expected CAS value for takers and rules out ABA.
			it.tag.Store(pos)
			if slot.CompareAndSwap(nil, it) {
				p.pq.Push(d.ref(it, pos))
				d.ctrs[pl].Pushes.Add(1)
				return
			}
		}
		if stale {
			continue
		}
		// No free slot in the window: move the tail forward. One thread
		// will succeed; there is no need to check which (Listing 1).
		if d.tail.CompareAndSwap(t, t+k64) {
			d.ctrs[pl].TailAdvances.Add(1)
		}
	}
}

// drainGlobal catches the place's priority queue up with the global array:
// every item in [cursor, tail) not created by this place gains a local
// reference (items created here were referenced at push time).
func (d *DS[T]) drainGlobal(p *place[T]) {
	t := d.tail.Load()
	for p.cur.Pos() < t {
		it := p.cur.Load()
		if it == nil {
			// Unreachable under the tail protocol (slots below tail are
			// filled before the tail moves, and Go atomics are seq-cst);
			// kept as a defensive stop so a bug degrades into a spurious
			// failure rather than a crash.
			return
		}
		if it.place != p.id && it.tag.Load() != takenTag {
			p.pq.Push(d.ref(it, p.cur.Pos()))
		}
		p.cur.Advance()
	}
}

// Pop removes and returns a task (Listing 2).
func (d *DS[T]) Pop(pl int) (v T, ok bool) {
	p := d.places[pl]
	c := &d.ctrs[pl]
	d.drainGlobal(p)

	for {
		e, any := p.pq.Pop()
		if !any {
			break
		}
		r := e.V
		it := r.it
		if it.tag.Load() != r.tag {
			continue // already taken (or eliminated) by someone else
		}
		if d.opts.Stale != nil && d.opts.Stale(it.v) {
			// Lazy dead-task elimination (§5.1): retire without returning.
			if it.tag.CompareAndSwap(r.tag, takenTag) {
				c.Eliminated.Add(1)
				if d.opts.OnEliminate != nil {
					d.opts.OnEliminate(pl, it.v)
				}
			}
			continue
		}
		// Read the task before the CAS: in the paper's reuse scheme the
		// item may be recycled immediately after a successful take.
		v = it.v
		if it.tag.CompareAndSwap(r.tag, takenTag) {
			c.Pops.Add(1)
			return v, true
		}
		// Somebody took it between our load and CAS; recheck the global
		// array for new tasks before trying the next reference.
		d.drainGlobal(p)
	}

	// The priority queue is empty. Up to k tasks may still sit at or after
	// the tail; since nothing precedes them, no priority ordering is owed
	// and a single random probe suffices (spurious failure is allowed as
	// long as someone is making progress).
	c.Probes.Add(1)
	t := d.tail.Load()
	off := int64(p.rng.Intn(int(d.kmax)))
	pos := t + off
	if it := d.arr.Peek(pos); it != nil && it.tag.Load() == pos {
		// Recheck the stored k: the item may only be taken from the
		// relaxed zone while it is still within its own k-window of the
		// observed tail. (Listing 2 writes this comparison the other way
		// around, which could never fire for k = kmax and would strand
		// the final window; see docs/ARCHITECTURE.md, "Departures from
		// the paper".)
		if off < int64(it.k) {
			if d.opts.Stale != nil && d.opts.Stale(it.v) {
				if it.tag.CompareAndSwap(pos, takenTag) {
					c.Eliminated.Add(1)
					if d.opts.OnEliminate != nil {
						d.opts.OnEliminate(pl, it.v)
					}
				}
			} else {
				v = it.v
				if it.tag.CompareAndSwap(pos, takenTag) {
					c.ProbeHits.Add(1)
					c.Pops.Add(1)
					return v, true
				}
			}
		}
	}
	c.PopFailures.Add(1)
	var zero T
	return zero, false
}

// Stats aggregates the per-place counters.
func (d *DS[T]) Stats() core.Stats { return core.SumCounters(d.ctrs) }

// Tail exposes the current tail index (for tests and instrumentation).
func (d *DS[T]) Tail() int64 { return d.tail.Load() }

// Segments reports retained global-array segments (for tests).
func (d *DS[T]) Segments() int { return d.arr.Segments() }

// PushK and PopKInto loop over the single-task operations: the
// centralized structure's ρ-bound is enforced per insertion against the
// moving tail window, so a native batch could not skip the per-task
// tail checks anyway.

// PushK stores every element of vs via the single-task path.
func (d *DS[T]) PushK(pl int, k int, vs []T) { core.PushKViaSingles[T](d, pl, k, vs) }

// PopKInto fills out via the single-task path without allocating; the
// caller owns the buffer.
func (d *DS[T]) PopKInto(pl int, out []T) int { return core.PopKIntoViaSingles[T](d, pl, out) }

var _ core.DS[int] = (*DS[int])(nil)
