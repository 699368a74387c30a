package stats

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// RankBuckets is the resolution of RankTracker's live-set priority
// census. A coarser census under-counts inversions inside one bucket,
// so the estimate is a lower bound with bucket-width granularity —
// exactly the trade the loadgen tracker has always made.
const RankBuckets = 256

// rankWords is the hierarchical summary width: one 64-bit occupancy
// word plus one partial sum per 64 buckets, the same low-scan trick as
// internal/pq.BucketQueue's occupancy bitmask.
const rankWords = RankBuckets / 64

// RankTracker estimates pop rank error — for each sampled executed
// task, how many strictly-better-priority tasks were still live — from
// a lock-free per-bucket census of the outstanding work. It is the
// shared engine behind loadgen's rank-error report and the serve-mode
// rank-error series (docs/METRICS.md), which reads it through Signal.
//
// Protocol: call Submitted when a task enters the scheduler, Retract
// if that submission is then rejected (shed), and Executed when it
// runs. All three are safe from any goroutine and allocation-free.
// Executed samples: every sampleEvery-th call (globally, via one
// shared sequence counter) reads the hierarchical summary below the
// task's bucket — whole-word partial sums plus the occupied buckets of
// the task's own word — instead of scanning every bucket. The census
// is racy by construction — concurrent decrements can transiently
// drive a reader's sum negative, which is clamped, and a stale
// occupancy bit can transiently hide or re-include an empty bucket —
// because the estimate is a control/reporting signal, not an audit
// trail. Single-threaded the summary is exact.
type RankTracker struct {
	live    []atomic.Int64
	bshift  uint // prio >> bshift = bucket
	sample  int64
	execSeq atomic.Int64

	// wordSum[w] is the live-count total of buckets [64w, 64w+64); occ[w]
	// has bit i set while bucket 64w+i is (racily) non-empty. Together
	// they let a sampled Executed read ~rankWords words instead of up to
	// RankBuckets bucket counters.
	wordSum [rankWords]atomic.Int64
	occ     [rankWords]atomic.Uint64

	// decay is the windowed estimator behind Signal, nil until Signal is
	// first called: from then on Executed feeds every sampled rank into
	// it, and the Signal closure reads the p99 and ages it. Without a
	// reader, sampled executions pay no histogram update.
	decay atomic.Pointer[DecayingHist]
}

// NewRankTracker returns a tracker for priorities in [0, prioRange).
// prioRange must be a power of two ≥ RankBuckets (so buckets divide
// the domain evenly); sampleEvery ≥ 1 sets the sampling stride.
func NewRankTracker(prioRange int64, sampleEvery int) (*RankTracker, error) {
	if prioRange&(prioRange-1) != 0 || prioRange < RankBuckets {
		return nil, fmt.Errorf("stats: rank tracker prioRange %d must be a power of two ≥ %d", prioRange, RankBuckets)
	}
	if sampleEvery < 1 {
		return nil, fmt.Errorf("stats: rank tracker sampleEvery %d must be ≥ 1", sampleEvery)
	}
	t := &RankTracker{
		live:   make([]atomic.Int64, RankBuckets),
		sample: int64(sampleEvery),
	}
	for w := prioRange / RankBuckets; w > 1; w >>= 1 {
		t.bshift++
	}
	return t, nil
}

// setOcc/clearOcc maintain an occupancy bit with CAS loops (the
// dedicated atomic Or/And methods need Go ≥ 1.23; CI still runs 1.22).
func (t *RankTracker) setOcc(b int64) {
	w, bit := b>>6, uint64(1)<<uint(b&63)
	for {
		old := t.occ[w].Load()
		if old&bit != 0 || t.occ[w].CompareAndSwap(old, old|bit) {
			return
		}
	}
}

func (t *RankTracker) clearOcc(b int64) {
	w, bit := b>>6, uint64(1)<<uint(b&63)
	for {
		old := t.occ[w].Load()
		if old&bit == 0 || t.occ[w].CompareAndSwap(old, old&^bit) {
			return
		}
	}
}

// Submitted adds one live task at the given priority to the census.
func (t *RankTracker) Submitted(prio int64) {
	b := prio >> t.bshift
	if t.live[b].Add(1) == 1 {
		t.setOcc(b)
	}
	t.wordSum[b>>6].Add(1)
}

// Retract undoes one Submitted for a task that never entered the
// scheduler (shed at the admission gate, failed submit).
func (t *RankTracker) Retract(prio int64) { t.remove(prio >> t.bshift) }

func (t *RankTracker) remove(b int64) {
	if t.live[b].Add(-1) == 0 {
		t.clearOcc(b)
	}
	t.wordSum[b>>6].Add(-1)
}

// Executed removes the task from the census and, on every
// sampleEvery-th call, measures its rank error: the number of
// strictly-better-bucket tasks still live. Returns (rank, true) for
// sampled calls and (0, false) otherwise.
func (t *RankTracker) Executed(prio int64) (rank int64, sampled bool) {
	b := prio >> t.bshift
	t.remove(b)
	if t.execSeq.Add(1)%t.sample != 0 {
		return 0, false
	}
	// Hierarchical read: whole words strictly below the task's own come
	// from the per-word partial sums; the task's word contributes only
	// its occupied buckets below bit b&63.
	var better int64
	w := b >> 6
	for i := int64(0); i < w; i++ {
		better += t.wordSum[i].Load()
	}
	if mask := t.occ[w].Load() & (uint64(1)<<uint(b&63) - 1); mask != 0 {
		for mask != 0 {
			i := bits.TrailingZeros64(mask)
			mask &= mask - 1
			better += t.live[w<<6|int64(i)].Load()
		}
	}
	if better < 0 {
		// Concurrent decrements can transiently drive this reader's sum
		// negative; clamp rather than pollute the estimate.
		better = 0
	}
	if d := t.decay.Load(); d != nil {
		d.Observe(float64(better))
	}
	return better, true
}

// Signal returns the windowed rank-error p99 closure the controller
// goroutine consumes (sched.Config.RankSignal): each call reports the
// decayed p99 and then ages the window. The window covers the sampled
// executions since the first Signal call; call it before executions
// start to see them all. The closure retains its own scratch, so a
// periodic reader allocates nothing — but that also means it is for a
// single reader (the controller goroutine).
func (t *RankTracker) Signal() func() float64 {
	t.decay.CompareAndSwap(nil, NewDecayingHist())
	d := t.decay.Load()
	scratch := make([]int64, d.ScratchLen())
	return func() float64 {
		q := d.QuantileScratch(0.99, scratch)
		d.Decay()
		return q
	}
}

// Live returns the current census total — the number of tasks
// submitted but not yet executed or retracted (transiently negative
// readings are clamped to 0).
func (t *RankTracker) Live() int64 {
	var n int64
	for i := range t.wordSum {
		n += t.wordSum[i].Load()
	}
	if n < 0 {
		n = 0
	}
	return n
}
