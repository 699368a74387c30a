// Package core defines the common contract shared by the three priority
// scheduling data structures of the paper (Section 2.1): a centralized
// global component plus one local component per place, accessed through
// push and pop operations that are always executed in the context of a
// specific place.
//
// The contract mirrors the paper's data structure model:
//
//   - push stores a task for later execution, with a per-task relaxation
//     parameter k;
//   - pop returns some stored task and removes it; each pushed task is
//     returned by pop exactly once;
//   - pop may spuriously fail (return ok == false) as long as another
//     place is making progress — schedulers must treat a failed pop as
//     "retry", not "empty";
//   - the task returned need not be the globally highest-priority task;
//     the ordering guarantee is implementation-specific (ρ-relaxation for
//     the k-priority structures, none across places for work-stealing).
package core

import (
	"fmt"

	"repro/internal/pq"
)

// DS is the one contract the scheduling system programs against: the
// paper's push and pop in the context of a place (§2.1) plus their
// batched forms. Every operation must only be invoked with
// 0 ≤ place < Places, and each place value must be used by at most one
// goroutine at a time (the place's local component is single-owner by
// construction).
//
// The batch operations amortize synchronization: a native
// implementation stores or removes a whole group of tasks under a single
// lock acquisition (the MultiQueue "operation batching" of Postnikova et
// al.); structures whose bounds are enforced per task loop over the
// single-task operations (PushKViaSingles, PopKIntoViaSingles).
type DS[T any] interface {
	// Push stores v with relaxation parameter k on behalf of place.
	Push(place int, k int, v T)
	// Pop removes and returns a stored task on behalf of place.
	// ok == false is a (possibly spurious) failure.
	Pop(place int) (v T, ok bool)
	// PushK stores every element of vs with relaxation parameter k on
	// behalf of place. Equivalent to len(vs) Push calls; a native
	// implementation may store the whole batch in one synchronization
	// episode. An empty vs is a no-op.
	PushK(place int, k int, vs []T)
	// PopKInto fills the caller-owned out with up to len(out) stored
	// tasks on behalf of place and returns the count obtained, so a hot
	// loop reuses one buffer per worker instead of allocating per pop
	// episode. 0 is a (possibly spurious) failure, exactly like Pop's
	// ok == false; an empty out always returns 0. The tasks of one batch
	// are returned in the implementation's pop order, but a batch as a
	// whole provides no stronger ordering guarantee than len(out)
	// successive Pops.
	PopKInto(place int, out []T) int
	// Reset empties the structure and re-seeds it as if it had been
	// built with Options.Seed = seed, keeping the storage it has grown
	// for the next round of operations. It must only be called while
	// the structure is quiescent: no operation in flight on any place.
	// Stats keep counting across it.
	Reset(seed uint64)
	// Stats returns aggregated operation counters. It may be called
	// concurrently with operations; values are internally consistent per
	// counter but not across counters.
	Stats() Stats
}

// PushKViaSingles implements DS.PushK over the single-task Push, for
// the structures whose PushK has no native batching advantage.
func PushKViaSingles[T any](d DS[T], place int, k int, vs []T) {
	for _, v := range vs {
		d.Push(place, k, v)
	}
}

// PopKIntoViaSingles implements DS.PopKInto over the single-task Pop:
// it stops at the first failed pop, so one spurious failure ends the
// batch early rather than blocking it. It never allocates: the caller
// owns out.
func PopKIntoViaSingles[T any](d DS[T], place int, out []T) int {
	got := 0
	for got < len(out) {
		v, ok := d.Pop(place)
		if !ok {
			break
		}
		out[got] = v
		got++
	}
	return got
}

// NewLocalQueue constructs the sequential priority queue of one place's
// local component ("any sequential implementation of a priority queue
// can be used", §4.1). It is the single place that picks the container
// for the k-priority structures (the relaxed lanes, which hold tasks by
// value and are ≈ 32 deep rather than thousands, pick their own: a bare
// pq.KeyHeap when keyed). Entries are references V tagged with their
// task's key (Options.Key).
// With a projection (keyed) the queue is pq.KeyWindow, ordered by Key —
// exact like a heap, with a bucket front that pops in O(1) and
// pq.KeyHeap behind it for the keys outside its window. Without one
// every key is 0 and the queue is a pq.BinHeap ordered by less, the
// structure's Options.Less lifted to its references.
func NewLocalQueue[V any](keyed bool, less func(a, b pq.Keyed[V]) bool) pq.Queue[pq.Keyed[V]] {
	if keyed {
		return pq.NewKeyWindow[V]()
	}
	return pq.NewBinHeap(less)
}

// Options configures a data structure instance. Less is the paper's
// priority function: Less(a, b) reports whether a has higher priority
// (is scheduled before) b.
type Options[T any] struct {
	// Places is the number of places (threads of execution). Must be ≥ 1.
	Places int
	// Less orders tasks; smaller-first. Required.
	Less func(a, b T) bool
	// Prio optionally projects a task to an integer key that agrees with
	// Less: Prio(a) < Prio(b) must imply Less(a, b). The k-priority
	// structures then order their place-local queues by the key, computed
	// once per reference, and never call Less there — so tasks with equal
	// keys pop in unspecified order, whatever Less says about them. The
	// relaxed structure takes the same function, under the same
	// contract, as relaxed.NumericConfig.Prio. The scheduler fills both
	// from its Priority function.
	Prio func(T) int64
	// Stale optionally marks dead tasks (§5.1): tasks superseded by a
	// re-insertion with improved priority. Pop eliminates stale tasks
	// lazily instead of returning them.
	Stale func(T) bool
	// OnEliminate is invoked once for every task retired through the
	// Stale predicate (never concurrently for the same task), on the
	// goroutine of the place whose pop retired it and with that place's
	// id — so the scheduler settles its outstanding-task accounting in
	// the place's own counters instead of a shared one.
	OnEliminate func(place int, v T)
	// KMax bounds per-task k values for the centralized structure, which
	// must probe a bounded window past the tail (§4.1.2). Defaults to 512,
	// the paper's choice.
	KMax int
	// Seed makes all internal randomization deterministic.
	Seed uint64
}

// Key is the local-queue key of v: Prio(v), or 0 without a projection.
func (o *Options[T]) Key(v T) int64 {
	if o.Prio == nil {
		return 0
	}
	return o.Prio(v)
}

// DefaultKMax is the paper's kmax (§4.1.2).
const DefaultKMax = 512

// Validate normalizes defaults and reports configuration errors.
func (o *Options[T]) Validate() error {
	if o.Places < 1 {
		return fmt.Errorf("core: Places = %d, need at least 1", o.Places)
	}
	if o.Less == nil {
		return fmt.Errorf("core: Less function is required")
	}
	if o.KMax <= 0 {
		o.KMax = DefaultKMax
	}
	return nil
}

// ClampK normalizes a per-task k against kmax: k < 1 is treated as 1
// (k = 0 demands strict ordering, and a window of one slot — insert
// exactly at the tail — is the strictest the array scheme expresses).
func ClampK(k, kmax int) int {
	if k < 1 {
		return 1
	}
	if k > kmax {
		return kmax
	}
	return k
}

// Stats aggregates operation counters across places. All counters are
// totals since construction.
type Stats struct {
	Pushes       int64 // tasks stored
	Pops         int64 // tasks returned by pop
	PopFailures  int64 // pops that returned ok == false
	BatchPushes  int64 // native PushK calls that stored ≥ 1 task in one lock episode
	BatchPops    int64 // native PopKInto calls that returned ≥ 1 task in one lock episode
	PopRetries   int64 // relaxed: bounded lane re-samples after a failed try-lock/read
	Resticks     int64 // relaxed: sticky lane re-selections (expired or contended lanes)
	Eliminated   int64 // stale tasks retired without execution
	TailAdvances int64 // centralized: tail window moves
	Probes       int64 // centralized: random probes past tail
	ProbeHits    int64 // centralized: probes that returned a task
	Publishes    int64 // hybrid: local lists appended to the global list
	Spies        int64 // hybrid: spy attempts
	SpyHits      int64 // hybrid: spy attempts that found tasks
	Steals       int64 // work-stealing: steal attempts
	StealHits    int64 // work-stealing: steals that obtained tasks
	StolenTasks  int64 // work-stealing: tasks moved by successful steals

	// The admission-control counters are written by the scheduler layer
	// (sched serve-mode backpressure), never by a data structure: a shed
	// task is rejected before it reaches a DS and a deferred one is
	// parked outside it, so at the DS level all three are always zero —
	// dstest pins that, keeping the item-flow equation Pushes == Pops
	// (+ Eliminated) exact. They live here so one Stats block carries
	// the whole task-flow story end to end.
	Shed       int64 // backpressure: tasks rejected at admission (never stored)
	Deferred   int64 // backpressure: tasks parked in the spillway
	Readmitted int64 // backpressure: spillway tasks re-submitted to the DS

	// The tenant-fairness counters follow the same rule: they are
	// written only by the scheduler layer (the per-tenant quota gate of
	// the fairness controller), so at the DS level both are always zero.
	TenantShed     int64 // fairness: tasks rejected by a tenant quota (spillway full)
	TenantDeferred int64 // fairness: tasks parked in the spillway by a tenant quota

	// Handoffs is written only by the scheduler layer too: tasks a
	// Submit handed straight to an idle worker place, which never entered
	// the structure (Pushes, Pops and Eliminated exclude them).
	Handoffs int64
}

// Sub returns s minus other, counter by counter. Used to compute per-run
// deltas from cumulative counters.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		Pushes:         s.Pushes - other.Pushes,
		Pops:           s.Pops - other.Pops,
		PopFailures:    s.PopFailures - other.PopFailures,
		BatchPushes:    s.BatchPushes - other.BatchPushes,
		BatchPops:      s.BatchPops - other.BatchPops,
		PopRetries:     s.PopRetries - other.PopRetries,
		Resticks:       s.Resticks - other.Resticks,
		Eliminated:     s.Eliminated - other.Eliminated,
		TailAdvances:   s.TailAdvances - other.TailAdvances,
		Probes:         s.Probes - other.Probes,
		ProbeHits:      s.ProbeHits - other.ProbeHits,
		Publishes:      s.Publishes - other.Publishes,
		Spies:          s.Spies - other.Spies,
		SpyHits:        s.SpyHits - other.SpyHits,
		Steals:         s.Steals - other.Steals,
		StealHits:      s.StealHits - other.StealHits,
		StolenTasks:    s.StolenTasks - other.StolenTasks,
		Shed:           s.Shed - other.Shed,
		Deferred:       s.Deferred - other.Deferred,
		Readmitted:     s.Readmitted - other.Readmitted,
		TenantShed:     s.TenantShed - other.TenantShed,
		TenantDeferred: s.TenantDeferred - other.TenantDeferred,
		Handoffs:       s.Handoffs - other.Handoffs,
	}
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Pushes += other.Pushes
	s.Pops += other.Pops
	s.PopFailures += other.PopFailures
	s.BatchPushes += other.BatchPushes
	s.BatchPops += other.BatchPops
	s.PopRetries += other.PopRetries
	s.Resticks += other.Resticks
	s.Eliminated += other.Eliminated
	s.TailAdvances += other.TailAdvances
	s.Probes += other.Probes
	s.ProbeHits += other.ProbeHits
	s.Publishes += other.Publishes
	s.Spies += other.Spies
	s.SpyHits += other.SpyHits
	s.Steals += other.Steals
	s.StealHits += other.StealHits
	s.StolenTasks += other.StolenTasks
	s.Shed += other.Shed
	s.Deferred += other.Deferred
	s.Readmitted += other.Readmitted
	s.TenantShed += other.TenantShed
	s.TenantDeferred += other.TenantDeferred
	s.Handoffs += other.Handoffs
}

// String renders the non-zero counters compactly.
func (s Stats) String() string {
	return fmt.Sprintf(
		"pushes=%d pops=%d popFail=%d batchPush=%d batchPop=%d popRetry=%d restick=%d elim=%d tailAdv=%d probes=%d/%d publishes=%d spies=%d/%d steals=%d/%d stolen=%d shed=%d deferred=%d readmit=%d tenShed=%d tenDefer=%d handoffs=%d",
		s.Pushes, s.Pops, s.PopFailures, s.BatchPushes, s.BatchPops,
		s.PopRetries, s.Resticks, s.Eliminated, s.TailAdvances,
		s.ProbeHits, s.Probes, s.Publishes, s.SpyHits, s.Spies,
		s.StealHits, s.Steals, s.StolenTasks,
		s.Shed, s.Deferred, s.Readmitted, s.TenantShed, s.TenantDeferred, s.Handoffs)
}
