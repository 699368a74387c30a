// Package globalpq implements the baseline the paper argues *against*:
// a single, shared, strict priority queue used as the scheduling data
// structure. Section 1 cites Lenharth, Nguyen and Pingali ("Priority
// queues are not good concurrent priority schedulers") for why: every
// place contends on the same top element, so the structure serializes
// exactly where the parallel algorithm needs throughput.
//
// It exists so the repository can *measure* that motivation rather than
// assert it (see the GLOBAL-PQ rows in EXPERIMENTS.md): it provides the
// strictest possible ordering (ρ = 0 — pops never ignore anything) and
// the worst contention profile, completing the trade-off spectrum
// work-stealing ↔ hybrid ↔ centralized ↔ global.
//
// The implementation is deliberately the textbook one — a binary heap
// under a single mutex. Stale tasks are eliminated lazily under the same
// lock, like every other structure in this repository.
package globalpq

import (
	"sync"

	"repro/internal/core"
	"repro/internal/pq"
)

// DS is the single shared priority queue. It implements core.DS.
type DS[T any] struct {
	opts core.Options[T]
	mu   sync.Mutex
	heap *pq.BinHeap[T]
	ctrs []core.Counters
}

// New constructs the shared queue for opts.Places places.
func New[T any](opts core.Options[T]) (*DS[T], error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &DS[T]{
		opts: opts,
		heap: pq.NewBinHeap(opts.Less),
		ctrs: make([]core.Counters, opts.Places),
	}, nil
}

// Push stores v. The relaxation parameter k is ignored: the global queue
// is strict (ρ = 0).
func (d *DS[T]) Push(pl int, k int, v T) {
	_ = k
	d.mu.Lock()
	d.heap.Push(v)
	d.mu.Unlock()
	d.ctrs[pl].Pushes.Add(1)
}

// Pop removes and returns the global minimum, eliminating stale tasks.
func (d *DS[T]) Pop(pl int) (v T, ok bool) {
	c := &d.ctrs[pl]
	d.mu.Lock()
	for {
		v, ok = d.heap.Pop()
		if !ok {
			d.mu.Unlock()
			c.PopFailures.Add(1)
			var zero T
			return zero, false
		}
		if d.opts.Stale != nil && d.opts.Stale(v) {
			c.Eliminated.Add(1)
			if d.opts.OnEliminate != nil {
				d.opts.OnEliminate(pl, v)
			}
			continue
		}
		d.mu.Unlock()
		c.Pops.Add(1)
		return v, true
	}
}

// PushK stores every element of vs under a single acquisition of the
// global lock — the one batching win a strict shared heap can offer.
func (d *DS[T]) PushK(pl int, k int, vs []T) {
	_ = k
	if len(vs) == 0 {
		return
	}
	d.mu.Lock()
	for _, v := range vs {
		d.heap.Push(v)
	}
	d.mu.Unlock()
	c := &d.ctrs[pl]
	c.Pushes.Add(int64(len(vs)))
	c.BatchPushes.Add(1)
}

// PopKInto is the batch pop: it fills the caller-owned out with up to len(out) tasks under one lock acquisition and
// returns the count obtained.
func (d *DS[T]) PopKInto(pl int, out []T) int {
	if len(out) == 0 {
		return 0
	}
	c := &d.ctrs[pl]
	got := 0
	d.mu.Lock()
	for got < len(out) {
		v, ok := d.heap.Pop()
		if !ok {
			break
		}
		if d.opts.Stale != nil && d.opts.Stale(v) {
			c.Eliminated.Add(1)
			if d.opts.OnEliminate != nil {
				d.opts.OnEliminate(pl, v)
			}
			continue
		}
		out[got] = v
		got++
	}
	d.mu.Unlock()
	if got == 0 {
		c.PopFailures.Add(1)
		return 0
	}
	c.Pops.Add(int64(got))
	if len(out) > 1 {
		c.BatchPops.Add(1)
	}
	return got
}

// Stats aggregates the per-place counters.
func (d *DS[T]) Stats() core.Stats { return core.SumCounters(d.ctrs) }

var _ core.DS[int] = (*DS[int])(nil)
