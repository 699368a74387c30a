package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/backpressure"
	"repro/internal/fair"
)

// CaptureVersion is the JSONL schema version Recorder writes and
// ReadCapture accepts. The full schema is documented in
// docs/METRICS.md ("Capture format").
const CaptureVersion = 1

// DefaultArrivalCap is the default session bound of a Recorder: the
// capture holds the first DefaultArrivalCap arrival envelopes of the
// session plus every controller decision; later arrivals are counted
// in the end record's "dropped" field rather than silently lost.
const DefaultArrivalCap = 1 << 18

// The arrival ring starts at ringInitial slots (a power of two; 40 B
// each, 160 KiB) and may double up to ringMax (1.25 MiB), never past
// the session cap rounded up to a power of two. A slot is reused once
// Flush has serialized it, and a serve session's controller flushes
// whenever half the ring is unflushed as well as once per window, so the
// ring only has to cover the flusher's wake-up lag: half the first ring
// is 4.5 ms of 450 k arrivals/s, half the largest 5 ms of 3.3 M
// arrivals/s.
const (
	ringInitial = 1 << 12
	ringMax     = 1 << 15
)

// head packs the ring generation above the arrival count: a ring switch
// bumps the generation, so a producer's claim CAS that raced a switch
// fails and retries on the new ring.
const (
	genShift = 48
	idxMask  = 1<<genShift - 1
)

// Header is the first line of a capture: schema version, who produced
// it, and freeform metadata (strategy, places, rates — whatever helps
// a human identify the incident later).
type Header struct {
	V      int               `json:"v"`
	Source string            `json:"source"`
	Meta   map[string]string `json:"meta,omitempty"`
}

// Arrival is one submission envelope: nanoseconds since capture start,
// numeric priority, batch size, and an optional tenant-opaque payload
// hash (hex; omitted when zero). Arrivals are recorded before the
// admission gate, so a replay applies its own gating.
type Arrival struct {
	At   int64  `json:"at_ns"`
	Prio int64  `json:"p"`
	K    int    `json:"k"`
	Hash string `json:"h,omitempty"`
}

// arrSlot is one arrival ring entry. ready flips to 1 only after the
// payload fields are fully written, so the flusher never reads a
// half-claimed slot, and back to 0 once the flusher has serialized it.
type arrSlot struct {
	at    int64
	prio  int64
	k     int64
	hash  uint64
	ready atomic.Uint32
}

// arrRing is one generation of the arrival ring: arrival i goes to
// slots[i&mask] while head carries gen.
type arrRing struct {
	slots []arrSlot
	mask  int64 // len(slots) - 1
	gen   int64
}

// Recorder serializes one serve session (or one simtest run) to a
// versioned JSONL capture: a header, optional controller config
// records, best-effort arrival envelopes, and every controller
// decision window.
//
// The write sides have different costs by design:
//
//   - Arrival is the per-task side: a lock-free claim of one ring slot
//     and four plain stores — no formatting, no locks, no allocation —
//     so recording does not disturb the zero-allocation submit path.
//     Arrival i goes to slot i mod the ring size, and Flush frees the
//     slots it serializes. The arrival that leaves half the ring
//     unflushed signals Wake, so a session's controller flushes between
//     its windows too. An arrival is dropped, and counted, when the
//     session has already recorded its cap (passed to NewRecorderSize)
//     or when its slot still holds an arrival Flush has not reached.
//   - Window records and Flush run on the controller goroutine once
//     per window and on each Wake; they serialize with encoding/json
//     under a mutex.
//
// The ring starts small and grows with its traffic: a Flush that finds
// an arrival dropped for want of a free slot doubles it, up to its
// largest size, at the next instant every claimed arrival is
// serialized. Every drop, before or after a growth, is counted.
//
// A Recorder is single-session: Begin once, Finish once.
type Recorder struct {
	ring    atomic.Pointer[arrRing]
	head    atomic.Int64 // ring generation << genShift | arrivals claimed
	flushed atomic.Int64 // arrivals serialized; their slots are free
	dropped atomic.Int64
	limit   int64         // session cap: arrivals past it are dropped
	wake    chan struct{} // one slot: the ring is half unflushed
	begun   atomic.Bool   // Begin was called

	// Flusher-only state.
	written  int64
	maxSlots int      // the ring grows up to this many slots
	next     *arrRing // the doubled ring, while a switch is pending
	seenDrop int64    // dropped as of the previous Flush

	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte // retained line buffer for arrival serialization
	err error
}

// NewRecorder returns a recorder writing to w that records the first
// DefaultArrivalCap arrivals of its session.
func NewRecorder(w io.Writer) *Recorder { return NewRecorderSize(w, DefaultArrivalCap) }

// NewRecorderSize returns a recorder that records at most arrivalCap
// arrival envelopes in its session. Its ring never grows past
// arrivalCap rounded up to a power of two.
func NewRecorderSize(w io.Writer, arrivalCap int) *Recorder {
	arrivalCap = max(1, min(arrivalCap, idxMask))
	fit := 1 << bits.Len(uint(arrivalCap-1))
	return newRecorder(w, arrivalCap, min(ringInitial, fit), min(ringMax, fit))
}

// newRecorder returns a recorder whose ring starts at slots entries and
// grows up to maxSlots, both powers of two.
func newRecorder(w io.Writer, arrivalCap, slots, maxSlots int) *Recorder {
	r := &Recorder{
		limit:    int64(arrivalCap),
		wake:     make(chan struct{}, 1),
		maxSlots: maxSlots,
		w:        bufio.NewWriter(w),
		buf:      make([]byte, 0, 128),
	}
	r.ring.Store(&arrRing{slots: make([]arrSlot, slots), mask: int64(slots - 1)})
	return r
}

// writeJSON marshals v and writes it as one line. Controller-goroutine
// cadence; allocation here is off the per-task path.
func (r *Recorder) writeJSON(v any) {
	b, err := json.Marshal(v)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	if err != nil {
		r.err = err
		return
	}
	if _, err := r.w.Write(b); err != nil {
		r.err = err
		return
	}
	r.err = r.w.WriteByte('\n')
}

// Begun reports whether Begin has been called: the Recorder holds, or
// is taking, its one session and cannot serve another.
func (r *Recorder) Begun() bool { return r.begun.Load() }

// Begin writes the header line. h.V is forced to CaptureVersion.
func (r *Recorder) Begin(h Header) {
	r.begun.Store(true)
	h.V = CaptureVersion
	r.writeJSON(struct {
		T string `json:"t"`
		Header
	}{T: "hdr", Header: h})
}

// cfgRecord is the shared shape of the controller-config lines.
type cfgRecord[C, S any] struct {
	T    string `json:"t"`
	Cfg  C      `json:"cfg"`
	Seed S      `json:"seed"`
}

// ConfigBackpressure records the backpressure controller's validated
// config and its state at capture start, making the capture
// self-contained for replay.
func (r *Recorder) ConfigBackpressure(cfg backpressure.Config, seed backpressure.State) {
	r.writeJSON(cfgRecord[backpressure.Config, backpressure.State]{T: "cfg_bp", Cfg: cfg, Seed: seed})
}

// ConfigFair records the tenant-fairness controller's config and
// starting state.
func (r *Recorder) ConfigFair(cfg fair.Config, seed fair.State) {
	r.writeJSON(cfgRecord[fair.Config, fair.State]{T: "cfg_fair", Cfg: cfg, Seed: seed})
}

// Arrival records one submission envelope: at nanoseconds since
// capture start, priority prio, batch size k, optional payload hash
// (0 = none). Lock-free and allocation-free; safe from any goroutine.
// The arrival that leaves half the ring unflushed signals Wake. An
// envelope past the session cap, or one whose ring slot Flush has not
// freed yet, is dropped and counted, whatever the ring's size. A drop
// claims no index, so the recorded arrivals are numbered without gaps.
func (r *Recorder) Arrival(at, prio int64, k int, hash uint64) {
	for {
		h := r.head.Load()
		ring := r.ring.Load()
		if h>>genShift != ring.gen {
			continue // Flush is switching rings: the new one is a store away
		}
		idx, free := h&idxMask, r.flushed.Load()
		if idx >= r.limit || idx-free > ring.mask {
			r.dropped.Add(1)
			return
		}
		if !r.head.CompareAndSwap(h, h+1) {
			continue
		}
		s := &ring.slots[idx&ring.mask]
		s.at = at
		s.prio = prio
		s.k = int64(k)
		s.hash = hash
		s.ready.Store(1)
		if idx+1-free >= (ring.mask+1)/2 {
			select {
			case r.wake <- struct{}{}:
			default:
			}
		}
		return
	}
}

// Wake returns the channel the arrival that leaves half the ring
// unflushed signals (non-blocking, one slot). A serve session's
// controller goroutine answers it with Flush; a Recorder driven by hand
// may ignore it and Flush on its own cadence.
func (r *Recorder) Wake() <-chan struct{} { return r.wake }

// Flush serializes every committed arrival envelope up to the first
// claimed-but-uncommitted slot, freeing their slots, and keeps walking
// the arrivals claimed meanwhile until it catches up with the producers.
// Called from the controller goroutine at window boundaries and on Wake
// (and by Finish); not safe for concurrent Flush calls. An unfinished
// walk resumes at its first uncommitted slot next time, preserving claim
// order.
//
// A Flush that finds arrivals dropped for want of a free slot doubles
// the ring, up to its largest size. The switch happens only once every
// claimed arrival is serialized — at the end of this walk or of a later
// one — so no arrival is left behind in the old ring.
func (r *Recorder) Flush() {
	ring := r.ring.Load()
	f := r.flushed.Load()
	d := r.dropped.Load()
	h := r.head.Load()
	if d != r.seenDrop {
		// A drop past the cap found head at the cap, and head never
		// decreases: with head still below it, every new drop was for
		// want of a free slot.
		if h&idxMask < r.limit && r.next == nil && len(ring.slots) < r.maxSlots {
			n := 2 * len(ring.slots)
			r.next = &arrRing{slots: make([]arrSlot, n), mask: int64(n - 1), gen: ring.gen + 1}
		}
		r.seenDrop = d
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// At most one ring's length past the first pass, so producers that
	// outpace the serializer cannot hold the controller here.
	for end := h&idxMask + ring.mask + 1; ; {
		for limit := h & idxMask; f < limit; f++ {
			s := &ring.slots[f&ring.mask]
			if s.ready.Load() == 0 {
				r.flushed.Store(f)
				return // claimed, payload not yet committed; retry next flush
			}
			r.writeArrival(s)
			s.ready.Store(0)
			r.written++
		}
		if h = r.head.Load(); h&idxMask == f {
			break // caught up: the ring is empty
		}
		// Only now may producers claim the slots this pass serialized.
		r.flushed.Store(f)
		if f >= end {
			return
		}
	}
	grow := r.next != nil && r.head.CompareAndSwap(h, h+1<<genShift)
	r.flushed.Store(f)
	if grow {
		// A claim at the old generation now fails its CAS; one at the
		// new generation waits for this store, and then sees flushed at
		// the switch, every slot of the new ring free.
		r.ring.Store(r.next)
		r.next = nil
	}
}

// writeArrival serializes one arrival slot as a capture line. Caller
// holds r.mu.
func (r *Recorder) writeArrival(s *arrSlot) {
	b := r.buf[:0]
	b = append(b, `{"t":"arr","at_ns":`...)
	b = strconv.AppendInt(b, s.at, 10)
	b = append(b, `,"p":`...)
	b = strconv.AppendInt(b, s.prio, 10)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, s.k, 10)
	if s.hash != 0 {
		b = append(b, `,"h":"`...)
		b = strconv.AppendUint(b, s.hash, 16)
		b = append(b, '"')
	}
	b = append(b, '}', '\n')
	r.buf = b
	if r.err == nil {
		_, r.err = r.w.Write(b)
	}
}

// windowRecord is the shared shape of the per-window decision lines.
type windowRecord[W any] struct {
	T string `json:"t"`
	W W      `json:"w"`
}

// BackpressureWindow records one backpressure decision.
func (r *Recorder) BackpressureWindow(w backpressure.Window) {
	r.writeJSON(windowRecord[backpressure.Window]{T: "bp", W: w})
}

// FairWindow records one tenant-fairness decision (the "ten" envelope:
// per-tenant sample deltas plus the quota state in force).
func (r *Recorder) FairWindow(w fair.Window) {
	r.writeJSON(windowRecord[fair.Window]{T: "ten", W: w})
}

// Dropped returns the number of arrival envelopes dropped so far: past
// the session cap, or while the ring was full between flushes, before
// or after it grew.
func (r *Recorder) Dropped() int64 { return r.dropped.Load() }

// End is the last line of a capture: how many arrivals made it into
// the file and how many were dropped (past the session cap, or while
// the ring was full between flushes).
type End struct {
	Arrivals int64 `json:"arrivals"`
	Dropped  int64 `json:"dropped"`
}

// Finish flushes remaining arrivals, writes the end record, flushes
// the underlying writer, and returns the first error encountered
// anywhere in the session.
func (r *Recorder) Finish() error {
	r.Flush()
	r.writeJSON(struct {
		T string `json:"t"`
		End
	}{T: "end", End: End{Arrivals: r.written, Dropped: r.dropped.Load()}})
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.w.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}

// Err returns the first write or marshal error latched so far.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
