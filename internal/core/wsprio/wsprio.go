// Package wsprio implements the priority work-stealing data structure of
// Section 3.1: classic work-stealing with the per-place deques replaced by
// sequential priority queues, which imposes local prioritization but — by
// the decentralized nature of stealing — cannot order tasks across places.
//
// When a place's own queue is empty, pop picks a uniformly random victim
// and steals half of its tasks ("stealing half the tasks allows tasks that
// are generated at one place to quickly spread throughout the system",
// citing Hendler & Shavit's steal-half queues). The stolen half is the
// trailing half of the victim's heap array, so the victim's heap remains
// valid without rebuilding and the thief heapifies its loot in O(loot).
//
// The paper omits the internals of its work-stealing variant (§4, referring
// to Pheet [19, 20]). This implementation guards each place's queue with a
// mutex: the owner takes it briefly for push/pop, and thieves use TryLock —
// a failed TryLock becomes a spurious pop failure, which the scheduling
// model explicitly allows. See docs/ARCHITECTURE.md ("Departures from
// the paper") for why this preserves the evaluated behaviour even though
// it is not lock-free in the strict sense.
//
// Unlike the k-priority structures, a task here exists in exactly one
// place's queue at any time (stealing transfers ownership), so no taken
// flag or tag is needed and exactly-once delivery is structural.
package wsprio

import (
	"sync"

	"repro/internal/core"
	"repro/internal/pq"
	"repro/internal/xrand"
)

type place[T any] struct {
	mu   sync.Mutex
	heap *pq.BinHeap[T]
	rng  *xrand.Rand
	_    [32]byte
}

// New constructs the data structure for opts.Places places.
func New[T any](opts core.Options[T]) (*DS[T], error) {
	return newDS(opts, false)
}

// NewStealOne constructs an ablation variant that steals a single task per
// steal instead of half of the victim's queue. Not part of the paper;
// used by the ABL-STEAL benchmarks to quantify the steal-half choice
// (Hendler & Shavit's spreading argument, §3.1).
func NewStealOne[T any](opts core.Options[T]) (*DS[T], error) {
	return newDS(opts, true)
}

func newDS[T any](opts core.Options[T], stealOne bool) (*DS[T], error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	d := &DS[T]{
		opts:     opts,
		stealOne: stealOne,
		places:   make([]*place[T], opts.Places),
		ctrs:     make([]core.Counters, opts.Places),
	}
	for i := range d.places {
		d.places[i] = &place[T]{heap: pq.NewBinHeap(opts.Less)}
	}
	d.Reset(opts.Seed)
	return d, nil
}

// Reset empties every place's queue, keeping its backing array, and
// re-seeds the places' generators.
func (d *DS[T]) Reset(seed uint64) {
	seeds := xrand.New(seed)
	for _, p := range d.places {
		p.heap.Clear()
		p.rng = seeds.Split()
	}
}

// DS is the priority work-stealing data structure. It implements core.DS.
type DS[T any] struct {
	opts     core.Options[T]
	stealOne bool
	places   []*place[T]
	ctrs     []core.Counters
}

// Push stores v in the place's own priority queue. The relaxation
// parameter k is ignored: work-stealing provides no inter-place ordering
// guarantee for any k (§3.1).
func (d *DS[T]) Push(pl int, k int, v T) {
	_ = k
	p := d.places[pl]
	p.mu.Lock()
	p.heap.Push(v)
	p.mu.Unlock()
	d.ctrs[pl].Pushes.Add(1)
}

// Pop returns the locally highest-priority task, stealing half of a random
// victim's queue when the local queue is empty.
func (d *DS[T]) Pop(pl int) (v T, ok bool) {
	p := d.places[pl]
	c := &d.ctrs[pl]

	if v, ok = d.popLocal(pl); ok {
		return v, true
	}

	// Local queue empty: steal half the tasks from a random victim.
	if len(d.places) > 1 {
		vi := p.rng.Intn(len(d.places) - 1)
		if vi >= pl {
			vi++
		}
		victim := d.places[vi]
		c.Steals.Add(1)
		var loot []T
		if victim.mu.TryLock() {
			if d.stealOne {
				if lv, lok := victim.heap.Pop(); lok {
					loot = append(loot, lv)
				}
			} else {
				loot = victim.heap.StealHalf()
				if len(loot) == 0 {
					// A single remaining task is not split; take it whole
					// so a victim with one task can still be relieved.
					if lv, lok := victim.heap.Pop(); lok {
						loot = append(loot, lv)
					}
				}
			}
			victim.mu.Unlock()
		}
		if len(loot) > 0 {
			c.StealHits.Add(1)
			c.StolenTasks.Add(int64(len(loot)))
			p.mu.Lock()
			if p.heap.Len() == 0 {
				// The common case: the thief's heap is empty (only the
				// owner pushes to it), so heapify the loot in place.
				*p.heap = *pq.NewBinHeapFrom(d.opts.Less, loot)
			} else {
				for _, lv := range loot {
					p.heap.Push(lv)
				}
			}
			p.mu.Unlock()
			if v, ok = d.popLocal(pl); ok {
				return v, true
			}
		}
	}
	c.PopFailures.Add(1)
	var zero T
	return zero, false
}

// popLocal pops the local minimum, eliminating stale tasks on the way.
func (d *DS[T]) popLocal(pl int) (v T, ok bool) {
	p, c := d.places[pl], &d.ctrs[pl]
	p.mu.Lock()
	for {
		v, ok = p.heap.Pop()
		if !ok {
			p.mu.Unlock()
			return v, false
		}
		if d.opts.Stale != nil && d.opts.Stale(v) {
			c.Eliminated.Add(1)
			if d.opts.OnEliminate != nil {
				d.opts.OnEliminate(pl, v)
			}
			continue
		}
		p.mu.Unlock()
		c.Pops.Add(1)
		return v, true
	}
}

// Stats aggregates the per-place counters.
func (d *DS[T]) Stats() core.Stats { return core.SumCounters(d.ctrs) }

// PushK and PopKInto loop over the single-task operations:
// work-stealing keeps each task in exactly one place-local queue, and
// the owner's push/pop already amortizes to a brief uncontended lock
// hold, so a native batch path would buy little.

// PushK stores every element of vs via the single-task path.
func (d *DS[T]) PushK(pl int, k int, vs []T) { core.PushKViaSingles[T](d, pl, k, vs) }

// PopKInto fills out via the single-task path without allocating; the
// caller owns the buffer.
func (d *DS[T]) PopKInto(pl int, out []T) int { return core.PopKIntoViaSingles[T](d, pl, out) }

var _ core.DS[int] = (*DS[int])(nil)
