// Package ctl holds the plumbing shared by the repo's feedback
// controllers: the sample → decide → apply loop that internal/adapt
// introduced (PR 3) and internal/backpressure repeats.
//
// Every controller in this codebase has the same mechanical skeleton:
// the plant (scheduler + data structure) exposes cumulative monotone
// counters plus a few instantaneous signals; once per window a driver
// snapshots them; the controller differences successive snapshots into a
// window sample, feeds the sample to a pure decision function, and
// records the decision for tracing. Only the decision policy differs
// between controllers. Loop owns the mechanical part generically —
// snapshot baseline, per-window differencing, current state, decision
// records — so each controller package contributes exactly two pure
// functions (diff and decide) and keeps its policy testable in
// isolation; a controller package's Controller type is an instantiation
// of Loop, not a wrapper around one. Ring is the bounded decision-trace
// companion: long-lived serving processes retain only the most recent
// windows while short experiment runs keep their full trajectory.
// Session is a Loop as a long-lived driver holds it (lock, last state,
// trace), and Replay/Diff are the one way a recorded trace is re-run
// and compared, whichever controller produced it.
package ctl

import (
	"fmt"
	"reflect"
	"sync"
	"time"
)

// Window records one controller decision for tracing: the virtual or
// wall time of the decision, the window's sample, and the state in
// force after the decision.
type Window[S, St any] struct {
	// At is the decision instant: virtual time in the simtest plants,
	// time since serve start in a live session (serialized as at_ns).
	At time.Duration `json:"at_ns"`
	// Sample is the window's observed signals — counter deltas plus
	// instantaneous values — exactly as handed to the decide function.
	Sample S `json:"sample"`
	// State is the controller state in force after the decision.
	State St `json:"state"`
}

// Loop is the generic stateful core of a window controller: it owns the
// current state and the previous cumulative snapshot, and turns
// successive snapshots into decisions. It is not safe for concurrent
// use — one goroutine (a scheduler's controller loop, or a simulation
// harness) drives it.
type Loop[C, S, St any] struct {
	diff   func(prev, cur C) (S, C)
	decide func(cur St, s S) St
	prev   C
	state  St
}

// NewLoop builds a loop from the two functions that define a
// controller — diff (cumulative snapshots → window sample, plus the
// baseline to difference the next window against) and decide (state +
// sample → next state) — starting at seed. The baseline diff returns
// is cur itself for a snapshot of plain values; a snapshot holding
// slices its driver reuses returns a copy the loop can keep.
func NewLoop[C, S, St any](diff func(prev, cur C) (S, C), decide func(cur St, s S) St, seed St) *Loop[C, S, St] {
	return &Loop[C, S, St]{diff: diff, decide: decide, state: seed}
}

// State returns the state currently in force.
func (l *Loop[C, S, St]) State() St { return l.state }

// Prime sets the baseline snapshot subsequent Steps are differenced
// against, without taking a decision. A driver whose counters predate
// the controller — a scheduler whose structure already served earlier
// sessions — calls it once at session start, so the first window's
// sample is that window's own activity rather than all of history. A
// driver whose counters start at zero can skip it: the zero-value
// baseline is then already correct.
func (l *Loop[C, S, St]) Prime(cum C) { _, l.prev = l.diff(l.prev, cum) }

// Step closes one window: it differences cum against the previous
// snapshot (construction or Prime before the first call), decides, and
// returns the decision record.
func (l *Loop[C, S, St]) Step(at time.Duration, cum C) Window[S, St] {
	s, keep := l.diff(l.prev, cum)
	l.prev = keep
	l.state = l.decide(l.state, s)
	return Window[S, St]{At: at, Sample: s, State: l.state}
}

// Ring is a bounded decision-trace buffer: appends beyond the capacity
// overwrite the oldest entries. Its buffer grows by doubling as entries
// arrive, so a short session holds what it recorded, not the capacity.
// Not safe for concurrent use — callers guard it with whatever lock
// protects their controller.
type Ring[T any] struct {
	buf      []T
	capacity int
	head     int // oldest element when full
}

// NewRing returns an empty ring retaining the most recent capacity
// entries. Capacity must be ≥ 1.
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{capacity: max(capacity, 1)}
}

// Append records v, evicting the oldest entry once the ring is full.
func (r *Ring[T]) Append(v T) {
	if n := len(r.buf); n < r.capacity {
		if n == cap(r.buf) {
			grown := make([]T, n, min(max(2*n, 16), r.capacity))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
}

// Snapshot returns a copy of the retained entries, oldest first; nil
// when nothing has been recorded.
func (r *Ring[T]) Snapshot() []T {
	if len(r.buf) == 0 {
		return nil
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// Len returns the number of retained entries.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Session is a window controller as a long-lived driver holds it: the
// Loop plus what observers on other goroutines may read while one
// goroutine steps it — the state last decided and a bounded decision
// trace — under one mutex. One Session outlives many serve sessions:
// each Begin installs a fresh loop and an empty trace, and the last
// state and trace of an ended session stay readable until the next.
type Session[C, S, St any] struct {
	mu       sync.Mutex
	loop     *Loop[C, S, St]
	last     St
	trace    *Ring[Window[S, St]]
	traceCap int
}

// NewSession returns a holder that reports idle from State, and no
// trace, until the first Begin. traceCap bounds the retained trace of
// each session.
func NewSession[C, S, St any](idle St, traceCap int) *Session[C, S, St] {
	return &Session[C, S, St]{last: idle, traceCap: traceCap}
}

// Begin starts a session on loop: its baseline is primed at cum (the
// driver's counters predate it), the trace is emptied, and the loop's
// seed — returned, for the driver to apply — becomes the state in
// force.
func (h *Session[C, S, St]) Begin(loop *Loop[C, S, St], cum C) St {
	loop.Prime(cum)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.loop = loop
	h.last = loop.State()
	h.trace = NewRing[Window[S, St]](h.traceCap)
	return h.last
}

// Step closes one window on the session's loop and records the
// decision. Only the driver's controller goroutine calls it, after
// Begin.
func (h *Session[C, S, St]) Step(at time.Duration, cum C) Window[S, St] {
	h.mu.Lock()
	defer h.mu.Unlock()
	w := h.loop.Step(at, cum)
	h.last = w.State
	h.trace.Append(w)
	return w
}

// State returns the state in force: idle before the first Begin, then
// the current session's seed or latest decision.
func (h *Session[C, S, St]) State() St {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last
}

// Trace returns a copy of the current (or most recent) session's
// retained decisions, oldest first; nil before the first Begin.
func (h *Session[C, S, St]) Trace() []Window[S, St] {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.trace == nil {
		return nil
	}
	return h.trace.Snapshot()
}

// Replay re-runs decide over the recorded samples of ws, starting from
// seed, and returns the trace it produces. Decide functions are pure
// and a recorded sample is exactly what the live loop handed to decide,
// so the result equals ws whenever the recording, its config and the
// decision logic still agree; Diff localizes where they do not.
func Replay[S, St any](ws []Window[S, St], seed St, decide func(cur St, s S) St) []Window[S, St] {
	out := make([]Window[S, St], 0, len(ws))
	st := seed
	for _, w := range ws {
		st = decide(st, w.Sample)
		out = append(out, Window[S, St]{At: w.At, Sample: w.Sample, State: st})
	}
	return out
}

// Diff reports every difference between two traces, one line per
// differing window (plus one for a length mismatch), each prefixed
// with kind. An empty result means bit-identical.
func Diff[S, St any](kind string, got, want []Window[S, St]) []string {
	var out []string
	n := len(got)
	if len(want) != n {
		out = append(out, fmt.Sprintf("%s: trace length %d, want %d", kind, len(got), len(want)))
		if len(want) < n {
			n = len(want)
		}
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			out = append(out, fmt.Sprintf("%s[%d]: got %+v, want %+v", kind, i, got[i], want[i]))
		}
	}
	return out
}
