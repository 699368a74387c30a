// Package relaxed implements a structurally ρ-relaxed concurrent priority
// queue — the direction the paper's Section 5.3 identifies as future work:
// the theoretical bounds only need the *structural* formulation of
// ρ-relaxation (a pop never ignores more than ρ items, regardless of their
// age), not the temporal one (only the last k items added may be ignored),
// so data structures that drop the temporal bookkeeping can synchronize
// less and scale better.
//
// Design: C·P sequential priority queues ("lanes"), each guarded by a
// try-lock, each advertising its current minimum in a lock-free-readable
// cache slot. A push inserts into a lane chosen per the stickiness policy.
// A pop selects a lane by sampling the advertised minima and pops that
// lane's minimum. The sequential queue is the paper's free choice
// (§4.1) and the code makes it from what it is given: with a numeric
// projection (NumericConfig.Prio) a lane orders by each task's cached
// int64 key — its smallest entries, up to frontCap of them, as one
// sorted contiguous run with the minimum last, everything else in a
// pq.KeyHeap behind it (front.go) — and advertises the run's last key;
// without one it is a pq.BinHeap ordered by Less and advertises a boxed
// task. Either way a lane pops its exact minimum. A batch pop from the
// sorted run is a copy off its end and a batch push one merge pass, so
// the shallow lanes of a keeping-up server never sift; the heap carries
// a lane only past frontCap.
//
// A lane is two cache lines laid out by who writes what (see lane): the
// lock with the queue state only its holder touches, and the
// advertisement every sampling place polls.
//
// Two sampling modes:
//
//   - SampleAll (default): the pop reads every lane's advertised minimum
//     and takes the best. In a quiescent state this returns the exact
//     global minimum; under concurrency it can miss at most the items
//     being moved by in-flight operations, at most one per concurrent
//     operation, giving a structural ρ ≤ P−1 that is independent of item
//     age — no temporal bookkeeping exists at all. The scalability win
//     over a single shared heap is that the lock held per operation is a
//     1/(C·P) random lane lock, not a global one.
//
//   - SampleTwo: classic MultiQueue sampling (Rihani, Sanders, Dementiev):
//     the pop compares the advertised minima of two random lanes only.
//     Cheaper per pop and extremely scalable, but the rank error is only
//     probabilistic (expected O(C·P)); the worst case is unbounded, so
//     this mode trades the paper's provable bounds for raw throughput.
//     The EXT-STRUCT benchmarks quantify the difference.
//
// Two MultiQueue optimizations (Postnikova, Kokorin, Alistarh,
// Aksenov, "Multi-Queues Can Be State-of-the-Art Priority Schedulers")
// are implemented on top:
//
//   - Stickiness: each place reuses its last push lane and last pop lane
//     for up to S consecutive operations before re-sampling (and abandons
//     a sticky lane immediately on a failed try-lock or an emptied lane).
//     S = 1 (the default) is the classic unsticky behavior; larger S
//     buys cache locality and fewer random re-samples at the price of a
//     proportionally larger expected rank error.
//
//   - Operation batching: PushK stores a whole push buffer and PopKInto
//     drains up to a buffer's worth of items under a single lane lock
//     acquisition, amortizing the lock and the minimum re-advertisement
//     across the batch.
//
// Failed try-locks and empty samples surface as spurious pop failures,
// which the scheduling model explicitly allows (§2.1); the number of
// re-sampling rounds one pop may attempt after losing such a race is
// capped at maxPopRetries, and the retries are surfaced through
// core.Stats.PopRetries so schedulers can fold them into their backoff
// policy. The per-task k is ignored: relaxation here is a property of
// construction, not of tasks.
package relaxed

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pq"
	"repro/internal/xrand"
)

// DefaultLaneFactor is the number of lanes per place (the "C" above).
const DefaultLaneFactor = 4

// DefaultStickiness re-samples a lane on every operation — the classic
// unsticky MultiQueue.
const DefaultStickiness = 1

// maxPopRetries caps how many times one pop may re-read the lane minima
// after losing a try-lock or pop race. Beyond the cap the pop falls back
// to a single deterministic sweep and then fails spuriously; without a
// cap, a pop racing a faster popper could re-sample indefinitely.
const maxPopRetries = 3

// heldLanePause is how many iterations of an empty loop a pop spins
// after a failed lane try-lock, before it examines the next lane. The
// lane is held, on a saturated server most often by the producer
// merging a batch into it; looking again at once pulls the lane's lock
// and advertisement lines away from the holder mid-merge and stalls
// the very push the pop is waiting for. The loop runs on registers
// alone, so the pause costs the popping core and no other. It is the
// relaxed structure's own: the scheduler's idle backoff does not pause
// (the same spin there slowed the hybrid's SSSP runs).
const heldLanePause = 256

// MaxPopBatch is the largest pop batch schedulers may configure: they
// validate their batch knobs (and size their per-worker PopKInto
// buffers) against it, so one pop episode never holds a lane lock for
// an unbounded drain.
const MaxPopBatch = 256

// SampleMode selects how pops choose a lane.
type SampleMode int

const (
	// SampleAll scans every lane's advertised minimum (structural bound).
	SampleAll SampleMode = iota
	// SampleTwo compares two random lanes (probabilistic bound).
	SampleTwo
)

// Config bundles the construction knobs beyond core.Options.
type Config struct {
	// Lanes is the total lane count; 0 selects DefaultLaneFactor·Places.
	Lanes int
	// Mode selects the pop sampling policy.
	Mode SampleMode
	// Stickiness is the number of consecutive operations a place directs
	// at one lane before re-sampling (S above); 0 selects
	// DefaultStickiness, i.e. re-sample every operation.
	Stickiness int
}

// NumericConfig carries the optional numeric projection. Supplying one
// makes the structure order by it: every lane stores its tasks beside
// their key — taken once, at push — in a sorted front with a pq.KeyHeap
// behind it, and advertises its smallest key in a plain atomic int64
// slot. Without one a lane is a pq.BinHeap ordered by Options.Less and
// advertises a boxed copy of its minimum through a hazard-guarded box
// recycle.
type NumericConfig[T any] struct {
	// Prio projects a task to its numeric priority; smaller is served
	// first. The contract is core.Options.Prio's: Prio(a) < Prio(b) must
	// imply Less(a, b). With it set, Less is not consulted anywhere in
	// the structure — lanes and samplers compare keys — so tasks with
	// equal keys pop in unspecified order. Nil keeps the Less-ordered
	// lanes and the boxed advertisement.
	Prio func(T) int64
	// MaxPrio is the inclusive upper bound of the Prio domain. Nothing in
	// the structure reads it: the field stays because bench/ledger.go's
	// literal names it, until ROADMAP item 2 lets this type fold into
	// core.Options.Prio.
	MaxPrio int64
}

// emptyPrio is the numeric advertisement of an empty lane. Every
// sampler and sweep skips a lane that advertises it, so a non-empty
// lane never does: advertise caps what it publishes at emptyPrio−1,
// and a task whose Prio is MaxInt64 merely ties with MaxInt64−1 there.
const emptyPrio = math.MaxInt64

// lane is one sequential queue with its lock and its advertisement, laid
// out by who writes what, one 64-byte line each (lanes are allocated one
// by one, 128 bytes each, so the allocator's size class aligns them):
// the first line is touched only by whoever holds — or tries — the lock,
// the second is what every sampling place polls. With both on one line
// a producer rewriting the queue's slice headers invalidated the line an
// idle worker was polling for work, on every push.
//
//schedlint:padded
type lane[T any] struct {
	// Lock-holder group: mu and the state only its holder touches.
	mu sync.Mutex
	// front and kh are the queue of a numeric lane (q == nil): every
	// task sits beside its key — the projection taken once, at push —
	// the lane's smallest entries as a sorted run in front, the rest in
	// kh; see front.go. Concrete fields, not a pq.Queue: the serve hot
	// loop works on them directly.
	front []pq.Keyed[T]
	kh    pq.KeyHeap[T]
	// q, set when there is no projection, is the lane's queue instead:
	// bare tasks ordered by Less.
	q *pq.BinHeap[T]

	// Advertisement group: written by the lock holder once per lock
	// episode, read lock-free by every sampler.
	//
	// minP is the numeric advertised minimum (emptyPrio when empty),
	// updated under mu. Only maintained when a numeric projection is
	// configured.
	minP atomic.Int64
	// min is the boxed advertised minimum: nil when empty, updated under
	// mu. Only maintained when no numeric projection is configured. The
	// boxes cycle through a per-lane two-slot recycle (spare) guarded by
	// hazard slots, so steady state re-advertisement is allocation-free.
	min atomic.Pointer[T]
	// spare is the retired advertisement box awaiting reuse, owned by
	// mu. advertise swaps it with the published box each episode unless
	// a sampler's hazard slot still pins it (then a fresh box is
	// allocated — a rare race, not the steady state).
	spare *T
	// contended counts failed try-lock acquisitions on this lane, summed
	// by ContentionTotal. Written only on the try-lock miss path, so the
	// hot uncontended paths never touch it.
	contended atomic.Int64
	_         [32]byte
}

// hzBox is one place's hazard slot for the boxed advertisement: a
// sampler publishes the box pointer it is about to dereference here,
// revalidates the lane's min, and clears the slot once the copy is
// done. advertise scans the slots before reusing a retired box, so a
// box is never overwritten while a sampler still reads it. The pad
// rounds the element to a 128-byte stride for the same prefetch-pair
// reason as sticky below.
//
//schedlint:padded
type hzBox[T any] struct {
	p atomic.Pointer[T]
	_ [120]byte
}

// sticky is one place's lane-affinity state. It is written only by the
// owning place's goroutine; the pad rounds the element up to a full
// 128-byte stride. A single cache line is not enough: the slice backing
// carries no 64-byte alignment guarantee, and the spatial prefetcher
// pulls adjacent lines in 128-byte pairs, so 64-byte elements still
// false-share through the prefetched sibling line. At 128 bytes per
// element no two places' state can land on one prefetch pair.
//
//schedlint:padded
type sticky struct {
	pushLane, pushLeft int
	popLane, popLeft   int
	_                  [96]byte
}

// DS is the structurally relaxed priority queue. It implements core.DS
// with native batch operations.
type DS[T any] struct {
	// The header is written once, in NewWithNumeric, and only read after.
	opts   core.Options[T]
	mode   SampleMode
	stick  int           // stickiness S, ≥ 1
	prio   func(T) int64 // nil: boxed advertisement
	hz     []hzBox[T]    // per place: hazard slot (boxed mode only)
	lanes  []*lane[T]
	rngs   []*xrand.Rand // one per place
	sticky []sticky      // one per place
	ctrs   []core.Counters
}

// New constructs the structure with DefaultLaneFactor lanes per place,
// SampleAll pops and no stickiness.
func New[T any](opts core.Options[T]) (*DS[T], error) {
	return NewWithConfig(opts, Config{})
}

// NewWithConfig constructs the structure with explicit knobs, lanes
// ordered by Less and the boxed minimum advertisement.
func NewWithConfig[T any](opts core.Options[T], cfg Config) (*DS[T], error) {
	return NewWithNumeric(opts, cfg, NumericConfig[T]{})
}

// NewWithNumeric constructs the structure with explicit knobs plus the
// optional numeric projection (keyed lanes with an int64 advertisement;
// see NumericConfig).
func NewWithNumeric[T any](opts core.Options[T], cfg Config, num NumericConfig[T]) (*DS[T], error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if cfg.Stickiness < 0 {
		return nil, fmt.Errorf("relaxed: Stickiness = %d, must be non-negative", cfg.Stickiness)
	}
	if cfg.Stickiness == 0 {
		cfg.Stickiness = DefaultStickiness
	}
	if cfg.Lanes == 0 {
		cfg.Lanes = DefaultLaneFactor * opts.Places
	}
	if cfg.Lanes < 1 {
		cfg.Lanes = 1
	}
	d := &DS[T]{
		opts:   opts,
		mode:   cfg.Mode,
		stick:  cfg.Stickiness,
		prio:   num.Prio,
		lanes:  make([]*lane[T], cfg.Lanes),
		rngs:   make([]*xrand.Rand, opts.Places),
		sticky: make([]sticky, opts.Places),
		ctrs:   make([]core.Counters, opts.Places),
	}
	if num.Prio == nil {
		d.hz = make([]hzBox[T], opts.Places)
	}
	for i := range d.lanes {
		ln := &lane[T]{}
		if num.Prio == nil {
			ln.q = pq.NewBinHeap(opts.Less)
		}
		d.lanes[i] = ln
	}
	d.Reset(opts.Seed)
	return d, nil
}

// Reset empties every lane, keeping its storage, forgets the places'
// sticky lanes and re-seeds their generators.
func (d *DS[T]) Reset(seed uint64) {
	for _, ln := range d.lanes {
		clear(ln.front)
		ln.front = ln.front[:0]
		ln.kh.Clear()
		if ln.q != nil {
			ln.q.Clear()
		}
		d.advertise(ln)
	}
	clear(d.sticky)
	seeds := xrand.New(seed)
	for i := range d.rngs {
		d.rngs[i] = seeds.Split()
	}
}

// Lanes returns the lane count.
func (d *DS[T]) Lanes() int { return len(d.lanes) }

// ContentionTotal returns the total number of failed lane try-locks —
// what the scheduler exports as sched_lane_contention_total and the
// benchmark's ledger reports per thousand tasks.
func (d *DS[T]) ContentionTotal() int64 {
	var sum int64
	for _, ln := range d.lanes {
		sum += ln.contended.Load()
	}
	return sum
}

// advertise re-publishes ln's minimum for the lock-free samplers;
// callers hold ln.mu. With a numeric projection the advertisement is a
// plain int64 store of the cached key at the end of the front. The
// boxed variant copies the minimum into the lane's spare box and swaps
// it with the published one — hazard slots keep a box from being
// overwritten under a concurrent sampler, so steady state costs zero
// allocations; a fresh box is allocated only when a sampler pins the
// spare mid-read.
func (d *DS[T]) advertise(ln *lane[T]) {
	if d.prio != nil {
		key := int64(emptyPrio)
		if n := len(ln.front); n > 0 {
			key = min(ln.front[n-1].Key, emptyPrio-1)
		}
		ln.minP.Store(key)
		return
	}
	if v, ok := ln.q.Peek(); ok {
		box := ln.spare
		if box == nil || d.boxHazarded(box) {
			//schedlint:ignore fresh box only when a sampler's hazard slot pins the spare — a rare race, not the steady state (see lane.spare)
			box = new(T)
		}
		*box = v
		old := ln.min.Load()
		ln.min.Store(box)
		ln.spare = old
	} else if old := ln.min.Load(); old != nil {
		ln.min.Store(nil)
		ln.spare = old
	}
}

// boxHazarded reports whether any place's hazard slot currently pins p.
// Called under the lane mu with p retired (not published), so a slot
// acquiring p after this scan must fail its revalidation and never
// dereference it.
func (d *DS[T]) boxHazarded(p *T) bool {
	for i := range d.hz {
		if d.hz[i].p.Load() == p {
			return true
		}
	}
	return false
}

// loadMin copies ln's boxed advertised minimum under pl's hazard slot:
// publish the pointer, revalidate the advertisement, copy, release.
// A failed revalidation means advertise swapped boxes mid-read; retry
// with the fresh pointer rather than dereference a recycled box.
func (d *DS[T]) loadMin(pl int, ln *lane[T]) (v T, ok bool) {
	hz := &d.hz[pl].p
	for {
		p := ln.min.Load()
		if p == nil {
			var zero T
			return zero, false
		}
		hz.Store(p)
		if ln.min.Load() != p {
			continue
		}
		v = *p
		hz.Store(nil)
		return v, true
	}
}

// laneEmpty reads ln's advertisement (racily, like all samplers).
func (d *DS[T]) laneEmpty(ln *lane[T]) bool {
	if d.prio != nil {
		return ln.minP.Load() == emptyPrio
	}
	return ln.min.Load() == nil
}

// bestOfAll returns the lane advertising the best minimum, or -1 when
// every lane advertises empty. pl selects the sampling place's hazard
// slot in boxed mode.
func (d *DS[T]) bestOfAll(pl int) int {
	best := -1
	if d.prio != nil {
		bestK := int64(emptyPrio)
		for i, ln := range d.lanes {
			if k := ln.minP.Load(); k < bestK {
				best, bestK = i, k
			}
		}
		return best
	}
	var bestV T
	for i, ln := range d.lanes {
		if v, ok := d.loadMin(pl, ln); ok && (best < 0 || d.opts.Less(v, bestV)) {
			best, bestV = i, v
		}
	}
	return best
}

// bestOfTwo is bestOfAll over exactly the lanes a and b.
func (d *DS[T]) bestOfTwo(pl, a, b int) int {
	best := -1
	if d.prio != nil {
		bestK := int64(emptyPrio)
		for _, i := range [2]int{a, b} {
			if k := d.lanes[i].minP.Load(); k < bestK {
				best, bestK = i, k
			}
		}
		return best
	}
	var bestV T
	for _, i := range [2]int{a, b} {
		if v, ok := d.loadMin(pl, d.lanes[i]); ok && (best < 0 || d.opts.Less(v, bestV)) {
			best, bestV = i, v
		}
	}
	return best
}

// Push inserts v into a lane chosen per the stickiness policy. The
// relaxation parameter k is ignored: the structural relaxation is fixed
// at construction.
//
//schedlint:hotpath
func (d *DS[T]) Push(pl int, k int, v T) {
	_ = k
	ln := d.lockPushLane(pl)
	if ln.q != nil {
		ln.q.Push(v)
	} else {
		ln.push1(d.prio(v), &v)
	}
	d.advertise(ln)
	ln.mu.Unlock()
	d.ctrs[pl].Pushes.Add(1)
}

// PushK inserts every element of vs into one lane under a single lock
// acquisition, re-advertising the lane minimum once for the whole batch.
//
//schedlint:hotpath
func (d *DS[T]) PushK(pl int, k int, vs []T) {
	_ = k
	if len(vs) == 0 {
		return
	}
	ln := d.lockPushLane(pl)
	if ln.q != nil {
		for i := range vs {
			ln.q.Push(vs[i])
		}
	} else {
		for rest := vs; len(rest) > 0; {
			b := min(len(rest), pushChunk)
			ln.merge(d.prio, rest[:b])
			rest = rest[b:]
		}
	}
	d.advertise(ln)
	ln.mu.Unlock()
	c := &d.ctrs[pl]
	c.Pushes.Add(int64(len(vs)))
	c.BatchPushes.Add(1)
}

// lockPushLane returns a locked lane for pl's next push episode. The
// sticky lane is reused while its budget lasts and it is uncontended;
// otherwise a fresh lane is sampled (counted as a restick), preferring
// try-locks and blocking on a random lane only when every lane is
// contended, to guarantee progress.
func (d *DS[T]) lockPushLane(pl int) *lane[T] {
	st := &d.sticky[pl]
	if st.pushLeft > 0 {
		ln := d.lanes[st.pushLane]
		if ln.mu.TryLock() {
			st.pushLeft--
			return ln
		}
		ln.contended.Add(1)
		st.pushLeft = 0 // contended: abandon the sticky lane
	}
	r := d.rngs[pl]
	d.ctrs[pl].Resticks.Add(1)
	n := len(d.lanes)
	i := r.Intn(n)
	for attempts := 0; ; attempts++ {
		ln := d.lanes[i]
		if ln.mu.TryLock() {
			st.pushLane, st.pushLeft = i, d.stick-1
			return ln
		}
		ln.contended.Add(1)
		i++
		if i == n {
			i = 0
		}
		if attempts == n {
			// Every lane contended: block on one to guarantee progress.
			i = r.Intn(n)
			ln = d.lanes[i]
			ln.mu.Lock()
			st.pushLane, st.pushLeft = i, d.stick-1
			return ln
		}
	}
}

// Pop selects a lane per the stickiness and sampling policies and pops
// its minimum, eliminating stale tasks on the way. A failed try-lock or
// an empty sample is a spurious failure.
//
//schedlint:hotpath
func (d *DS[T]) Pop(pl int) (v T, ok bool) {
	var buf [1]T
	if d.popInto(pl, buf[:]) == 0 {
		var zero T
		return zero, false
	}
	return buf[0], true
}

// PopKInto is the allocation-free batch pop: it fills out with up to
// len(out) tasks and returns how many it obtained (0 is a possibly
// spurious failure). The scheduler's worker loop uses this with a
// reusable per-worker buffer; a one-slot fill is exactly Pop and is not
// counted as a batch pop.
//
//schedlint:hotpath
func (d *DS[T]) PopKInto(pl int, out []T) int {
	if len(out) == 0 {
		return 0
	}
	got := d.popInto(pl, out)
	if got > 0 && len(out) > 1 {
		d.ctrs[pl].BatchPops.Add(1)
	}
	return got
}

// popInto fills out with up to len(out) popped tasks and returns how
// many it obtained. Lane selection: sticky lane first, then up to
// maxPopRetries+1 sampling rounds per the mode, then one sweep over
// every lane from a random start, so a nearly drained structure still
// empties promptly and a task in any lane is found by any place. Every
// failed try-lock on the way is counted once and followed by pauseHeld.
func (d *DS[T]) popInto(pl int, out []T) int {
	r := d.rngs[pl]
	c := &d.ctrs[pl]
	st := &d.sticky[pl]
	n := len(d.lanes)

	// Sticky fast path: reuse the previously sampled lane while its
	// budget lasts, it advertises work, and its lock is free.
	if st.popLeft > 0 {
		ln := d.lanes[st.popLane]
		if !d.laneEmpty(ln) {
			if ln.mu.TryLock() {
				st.popLeft--
				if got := d.drainLocked(pl, ln, out); got > 0 {
					return got
				}
			} else {
				ln.contended.Add(1)
				pauseHeld()
			}
		}
		st.popLeft = 0
	}

	for attempt := 0; attempt <= maxPopRetries; attempt++ {
		if attempt > 0 {
			c.PopRetries.Add(1)
		}
		var best int
		if d.mode == SampleTwo {
			a := r.Intn(n)
			b := a
			if n > 1 {
				b = r.Intn(n - 1)
				if b >= a {
					b++
				}
			}
			best = d.bestOfTwo(pl, a, b)
		} else { // SampleAll
			best = d.bestOfAll(pl)
		}
		if best < 0 {
			break // sampled lanes advertise empty: go sweep
		}
		ln := d.lanes[best]
		if !ln.mu.TryLock() {
			ln.contended.Add(1)
			pauseHeld()
			continue
		}
		if got := d.drainLocked(pl, ln, out); got > 0 {
			st.popLane, st.popLeft = best, d.stick-1
			c.Resticks.Add(1)
			return got
		}
		// Lost the race to a concurrent pop that emptied the lane.
	}

	// Sampled lanes empty or contended: sweep every lane once.
	start := r.Intn(n)
	for off := 0; off < n; off++ {
		i := start + off
		if i >= n {
			i -= n
		}
		ln := d.lanes[i]
		if d.laneEmpty(ln) {
			continue
		}
		if !ln.mu.TryLock() {
			ln.contended.Add(1)
			pauseHeld()
			continue
		}
		if got := d.drainLocked(pl, ln, out); got > 0 {
			st.popLane, st.popLeft = i, d.stick-1
			c.Resticks.Add(1)
			return got
		}
	}
	c.PopFailures.Add(1)
	return 0
}

// pauseHeld is the pause after a failed pop try-lock: heldLanePause
// iterations with no load or store (see heldLanePause).
//
//go:noinline
func pauseHeld() {
	for i := 0; i < heldLanePause; i++ {
	}
}

// drainLocked pops up to len(out) non-stale tasks from ln, which the
// caller holds locked, then re-advertises the minimum once and unlocks.
// From a numeric lane that is a copy off the end of the front, refilled
// from the heap when it runs empty — and once more before the lock goes,
// so that an empty front always means an empty lane.
//
//schedlint:hotpath
func (d *DS[T]) drainLocked(pl int, ln *lane[T], out []T) int {
	got := 0
	if ln.q != nil {
		for got < len(out) {
			v, ok := ln.q.Pop()
			if !ok {
				break
			}
			if d.live(pl, &v) {
				out[got] = v
				got++
			}
		}
	} else {
		for got < len(out) && (len(ln.front) > 0 || ln.refill()) {
			f := ln.front
			end := len(f) - min(len(f), len(out)-got)
			for i := len(f) - 1; i >= end; i-- {
				if v := &f[i].V; d.live(pl, v) {
					out[got] = *v
					got++
				}
			}
			clear(f[end:]) // release the references for GC
			ln.front = f[:end]
		}
		if len(ln.front) == 0 {
			ln.refill()
		}
	}
	d.advertise(ln)
	ln.mu.Unlock()
	if got > 0 {
		d.ctrs[pl].Pops.Add(int64(got))
	}
	return got
}

// live reports whether the popped task *v is to be handed out; a stale
// one is counted and reported as eliminated instead.
//
//schedlint:hotpath
func (d *DS[T]) live(pl int, v *T) bool {
	if d.opts.Stale == nil || !d.opts.Stale(*v) {
		return true
	}
	d.ctrs[pl].Eliminated.Add(1)
	if d.opts.OnEliminate != nil {
		d.opts.OnEliminate(pl, *v)
	}
	return false
}

// Stats aggregates the per-place counters.
func (d *DS[T]) Stats() core.Stats { return core.SumCounters(d.ctrs) }

var _ core.DS[int] = (*DS[int])(nil)
