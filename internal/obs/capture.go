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

// arrivalRing is the number of slots in a Recorder's arrival ring (a
// power of two; 40 B each, 1.25 MiB). A slot is reused once Flush has
// serialized it, so the ring only has to hold one flush interval's
// arrivals: 3.3 M arrivals/s at a 10 ms window.
const arrivalRing = 1 << 15

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
//     slots it serializes. An arrival is dropped, and counted, when the
//     session has already recorded its cap (passed to NewRecorderSize)
//     or when its slot still holds an arrival Flush has not reached.
//   - Window records and Flush run on the controller goroutine once
//     per window; they serialize with encoding/json under a mutex.
//
// A Recorder is single-session: Begin once, Finish once.
type Recorder struct {
	ring    []arrSlot
	mask    int64        // len(ring) - 1
	limit   int64        // session cap: arrivals past it are dropped
	head    atomic.Int64 // arrivals claimed; never exceeds limit
	flushed atomic.Int64 // arrivals serialized; their slots are free
	dropped atomic.Int64
	written int64
	begun   atomic.Bool // Begin was called

	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte // retained line buffer for arrival serialization
	err error
}

// NewRecorder returns a recorder writing to w that records the first
// DefaultArrivalCap arrivals of its session.
func NewRecorder(w io.Writer) *Recorder { return NewRecorderSize(w, DefaultArrivalCap) }

// NewRecorderSize returns a recorder that records at most arrivalCap
// arrival envelopes in its session. Its ring holds arrivalCap rounded
// up to a power of two, or the fixed ring size if that is smaller.
func NewRecorderSize(w io.Writer, arrivalCap int) *Recorder {
	if arrivalCap < 1 {
		arrivalCap = 1
	}
	return newRecorder(w, arrivalCap, min(arrivalRing, 1<<bits.Len(uint(arrivalCap-1))))
}

// newRecorder returns a recorder with a ring of slots entries, a power
// of two.
func newRecorder(w io.Writer, arrivalCap, slots int) *Recorder {
	return &Recorder{
		ring:  make([]arrSlot, slots),
		mask:  int64(slots - 1),
		limit: int64(arrivalCap),
		w:     bufio.NewWriter(w),
		buf:   make([]byte, 0, 128),
	}
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
// An envelope past the session cap, or one whose ring slot Flush has
// not freed yet, is dropped and counted. A drop claims no index, so
// the recorded arrivals are numbered without gaps.
func (r *Recorder) Arrival(at, prio int64, k int, hash uint64) {
	for {
		idx := r.head.Load()
		if idx >= r.limit || idx-r.flushed.Load() > r.mask {
			r.dropped.Add(1)
			return
		}
		if r.head.CompareAndSwap(idx, idx+1) {
			s := &r.ring[idx&r.mask]
			s.at = at
			s.prio = prio
			s.k = int64(k)
			s.hash = hash
			s.ready.Store(1)
			return
		}
	}
}

// Flush serializes every committed arrival envelope accumulated since
// the previous Flush and frees their slots. Called from the controller
// goroutine at window boundaries (and by Finish); not safe for
// concurrent Flush calls. The walk stops at the first
// claimed-but-uncommitted slot and resumes there next time, preserving
// claim order.
func (r *Recorder) Flush() {
	f := r.flushed.Load()
	limit := r.head.Load()
	r.mu.Lock()
	defer r.mu.Unlock()
	for ; f < limit; f++ {
		s := &r.ring[f&r.mask]
		if s.ready.Load() == 0 {
			break // claimed, payload not yet committed; retry next flush
		}
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
		s.ready.Store(0)
		r.written++
	}
	// Only now may producers claim the slots this walk serialized.
	r.flushed.Store(f)
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
// the session cap, or while the ring was full between flushes.
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
