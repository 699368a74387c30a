// Package backpressure implements priority-aware admission control for
// the open-system serving mode: under overload it sheds or defers the
// lowest-priority submissions so the structure's backlog — and with it
// the sojourn time of the traffic that still matters — stays bounded.
//
// The relaxed structures of this repo trade strict priority order for
// throughput. That trade only pays off while the scheduler keeps up: in
// an overloaded open system the queue grows without bound, every task's
// sojourn time grows with it, and the relaxation error compounds on top
// (Postnikova et al. use rank error as exactly this quality signal).
// A production scheduler therefore needs an admission policy in front
// of the structure. This package provides it as one of the scheduler's
// two controllers on the sample → decide → apply pattern (internal/ctl):
//
//   - the scheduler samples, per window, its cumulative admission
//     counters plus two instantaneous signals: the outstanding-task
//     count (Scheduler.Pending) and the spillway occupancy;
//   - the pure Decide function maintains an admission threshold over
//     the numeric priority domain: tasks with priority at or below the
//     threshold (smaller = more urgent) are admitted, the rest are
//     deferred to a bounded spillway or shed outright;
//   - overload — the structure's backlog exceeding what the observed
//     service rate clears within the sojourn budget — tightens the
//     threshold one geometric step per window; clear headroom relaxes
//     it one step, so the loop is AIMD-shaped;
//   - the threshold never tightens into the protected band: priorities
//     below Config.ProtectedBand are admitted unconditionally, the
//     "never shed" guarantee serving systems give their control-plane
//     traffic.
//
// Deferral gives bursty workloads a second chance: a task above the
// threshold is parked in a bounded Spillway and re-submitted (oldest
// first) when a window shows spare capacity — ReadmitQuota computes how
// many. Only when the spillway is full is a task shed (the scheduler
// returns sched.ErrShed so closed-loop callers can back off and retry).
//
// The decision function is pure and the controller clock-free, so the
// simtest subpackage replays whole scripted overload scenarios on a
// virtual clock, bit-identically.
package backpressure

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/ctl"
)

// Default controller parameters.
const (
	// DefaultSojournBudget is the target sojourn time: the controller
	// tightens admission when the backlog exceeds what the observed
	// service rate clears within this budget.
	DefaultSojournBudget = 50 * time.Millisecond
	// DefaultInterval is the sampling window the scheduler drives the
	// controller at — and, as sched.Config.AdaptInterval's default, the
	// cadence of every serve-mode controller, the metrics and the
	// recorder.
	DefaultInterval = 10 * time.Millisecond
	// DefaultSpillCap bounds the deferral spillway.
	DefaultSpillCap = 4096
	// DefaultReadmitChunk caps how many spilled tasks one under-loaded
	// window re-submits, so readmission cannot itself re-overload the
	// structure before the next sample observes the effect.
	DefaultReadmitChunk = 256
)

// Config parameterizes the admission controller over a numeric priority
// domain [0, MaxPrio], smaller values more urgent.
type Config struct {
	// MaxPrio is the inclusive upper bound of the priority domain.
	// Required (≥ 1): the threshold arithmetic is geometric over the
	// span above the protected band and needs a finite ceiling.
	MaxPrio int64
	// ProtectedBand protects the most urgent traffic unconditionally:
	// tasks with priority < ProtectedBand are always admitted, and the
	// threshold never tightens below it. 0 protects nothing.
	ProtectedBand int64
	// SojournBudget is the target sojourn time (0 selects
	// DefaultSojournBudget). The overload signal compares the backlog
	// against Executed·(SojournBudget/Interval), the number of tasks the
	// observed per-window service rate clears within the budget.
	SojournBudget time.Duration
	// Interval is the sampling window (0 selects DefaultInterval).
	// The controller itself is clock-free — Interval only scales the
	// sojourn-budget arithmetic and is consumed by whoever drives Step.
	Interval time.Duration
	// SpillCap bounds the deferral spillway (0 selects DefaultSpillCap).
	// Validated here so the scheduler and the simulation harness size
	// their spillways from one place.
	SpillCap int
	// ReadmitChunk caps per-window readmission (0 selects
	// DefaultReadmitChunk).
	ReadmitChunk int
}

// withDefaults normalizes zero fields.
func (c Config) withDefaults() Config {
	if c.SojournBudget == 0 {
		c.SojournBudget = DefaultSojournBudget
	}
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.SpillCap == 0 {
		c.SpillCap = DefaultSpillCap
	}
	if c.ReadmitChunk == 0 {
		c.ReadmitChunk = DefaultReadmitChunk
	}
	return c
}

// Validate normalizes defaults and reports configuration errors.
func (c *Config) Validate() error {
	*c = c.withDefaults()
	if c.MaxPrio < 1 {
		return fmt.Errorf("backpressure: MaxPrio = %d, need a positive priority domain", c.MaxPrio)
	}
	if c.ProtectedBand < 0 || c.ProtectedBand > c.MaxPrio {
		return fmt.Errorf("backpressure: ProtectedBand = %d outside the priority domain [0, %d]", c.ProtectedBand, c.MaxPrio)
	}
	if c.SojournBudget < time.Millisecond {
		return fmt.Errorf("backpressure: SojournBudget = %v, must be at least 1ms", c.SojournBudget)
	}
	if c.Interval < time.Millisecond {
		return fmt.Errorf("backpressure: Interval = %v, must be at least 1ms", c.Interval)
	}
	if c.SpillCap < 1 {
		return fmt.Errorf("backpressure: SpillCap = %d, must be positive", c.SpillCap)
	}
	if c.ReadmitChunk < 1 {
		return fmt.Errorf("backpressure: ReadmitChunk = %d, must be positive", c.ReadmitChunk)
	}
	return nil
}

// Clamp forces st's threshold into [ProtectedBand, MaxPrio].
func (c Config) Clamp(st State) State {
	if st.Threshold < c.ProtectedBand {
		st.Threshold = c.ProtectedBand
	}
	if st.Threshold > c.MaxPrio {
		st.Threshold = c.MaxPrio
	}
	return st
}

// Open returns the fully open state: every priority admitted.
func (c Config) Open() State { return State{Threshold: c.MaxPrio} }

// State is the admission threshold in force: tasks with priority at or
// below Threshold are admitted, the rest deferred or shed. Threshold ==
// MaxPrio is fully open; a numerically LOWER threshold is a STRICTER
// admission bar (priorities are smaller-is-more-urgent), so "the
// threshold rises under overload" in the serving sense means the cutoff
// value falls toward the protected band.
type State struct {
	// Threshold is the inclusive admission cutoff: tasks with priority
	// at or below it are admitted, the rest deferred or shed.
	Threshold int64 `json:"threshold"`
}

// Admits reports whether a task of the given priority passes the
// threshold. This is the whole hot-path check: the scheduler keeps the
// current threshold in an atomic and calls this on every Submit.
func (st State) Admits(prio int64) bool { return prio <= st.Threshold }

// Sample is one window's observed signals: admission counter deltas
// over the window plus the instantaneous backlog and spillway
// occupancy.
type Sample struct {
	// Admitted is the number of tasks accepted past the gate.
	Admitted int64 `json:"admitted"`
	// Deferred is the number of tasks parked in the spillway.
	Deferred int64 `json:"deferred"`
	// Shed is the number of tasks rejected outright.
	Shed int64 `json:"shed"`
	// Readmitted is the number of spilled tasks re-submitted.
	Readmitted int64 `json:"readmitted"`
	// Executed is the number of tasks the workers completed.
	Executed int64 `json:"executed"`
	// Pending is the total outstanding-task count at the window's end,
	// including tasks parked in the spillway.
	Pending int64 `json:"pending"`
	// Spill is the spillway occupancy at the window's end.
	Spill int64 `json:"spill"`
}

// depth is the structure's own backlog: outstanding tasks minus the
// ones parked in the spillway (those are waiting at the gate, not in
// line for a worker).
func (s Sample) depth() int64 {
	d := s.Pending - s.Spill
	if d < 0 {
		return 0
	}
	return d
}

// DepthBudget converts the sojourn budget into a backlog bound: the
// number of tasks the window's observed service rate clears within
// Config.SojournBudget. A window that executed nothing has a zero
// budget — any backlog is then overload.
func (c Config) DepthBudget(executed int64) int64 {
	if executed <= 0 {
		return 0
	}
	return int64(float64(executed) * float64(c.SojournBudget) / float64(c.Interval))
}

// overloaded reports whether the window demands tightening: the backlog
// exceeds the depth budget.
func (s Sample) overloaded(c Config) bool {
	d := s.depth()
	return d > 0 && d > c.DepthBudget(s.Executed)
}

// underloaded reports clear headroom: the backlog is at most half the
// depth budget. The half forms the AIMD hysteresis gap — between half
// and full budget the threshold holds, so it cannot oscillate every
// window around the boundary. An idle window (no backlog, no service)
// counts as underloaded: with nothing queued the gate has no reason to
// stay tight.
func (s Sample) underloaded(c Config) bool {
	return s.depth()*2 <= c.DepthBudget(s.Executed)
}

// StepDown is one tightening step: it halves the open span above the
// protected band, saturating at the band itself. Exported so the
// one-step-per-window property is testable against the same arithmetic
// Decide uses.
func StepDown(threshold, protected int64) int64 {
	span := threshold - protected
	if span <= 0 {
		return protected
	}
	return protected + span/2
}

// StepUp is one relaxing step: it widens the open span above the
// protected band by a 1/16 increment of the domain (at least one
// priority), saturating at max. Relaxation is additive while StepDown
// is multiplicative — classic AIMD asymmetry — because the two
// directions carry different risk: reopening too fast floods the
// structure and the backlog spike lands on every admitted task's
// sojourn (the protected band included), while reopening too slowly
// merely sheds a little longer. A doubling StepUp was measured to make
// the threshold swing 2× around its equilibrium every few windows,
// with admission bursts that pushed the protected band's p99 an order
// of magnitude past the sojourn budget.
func StepUp(threshold, protected, max int64) int64 {
	inc := (max - protected) / 16
	if inc < 1 {
		inc = 1
	}
	t := threshold + inc
	if t > max || t < protected { // t < protected: overflow
		return max
	}
	return t
}

// Decide is the pure per-window decision function. Guarantees, each
// window, for any inputs (the property tests pin all three):
//
//   - the returned threshold never leaves [ProtectedBand, MaxPrio] — in
//     particular it never tightens into the protected band, so
//     protected traffic is structurally unsheddable;
//   - the threshold moves by at most one step (StepUp/StepDown);
//   - the decision is monotone in the overload signal: with everything
//     else fixed, a sample with a larger backlog never yields a more
//     permissive threshold.
//
// The policy: an overloaded window (backlog past the depth budget)
// tightens one multiplicative step; a window with clear headroom
// (backlog at most half the budget) relaxes one additive step; anything
// in between holds — the hysteresis gap that keeps the gate from
// oscillating around the budget boundary.
func Decide(cfg Config, cur State, s Sample) State {
	cfg = cfg.withDefaults()
	cur = cfg.Clamp(cur)
	switch {
	case s.overloaded(cfg):
		cur.Threshold = StepDown(cur.Threshold, cfg.ProtectedBand)
	case s.underloaded(cfg):
		cur.Threshold = StepUp(cur.Threshold, cfg.ProtectedBand, cfg.MaxPrio)
	}
	return cur
}

// ReadmitQuota computes how many spilled tasks a window's sample allows
// back in: nothing while overloaded; up to the spare depth budget (and
// ReadmitChunk) otherwise. An empty structure always re-feeds — when
// the backlog is zero the spillway IS the backlog, and holding its
// tasks would strand them until more traffic arrives.
func ReadmitQuota(cfg Config, s Sample) int64 {
	cfg = cfg.withDefaults()
	if s.Spill == 0 || s.overloaded(cfg) {
		return 0
	}
	chunk := int64(cfg.ReadmitChunk)
	quota := chunk
	if d := s.depth(); d > 0 {
		room := cfg.DepthBudget(s.Executed) - d
		if room <= 0 {
			return 0
		}
		if room < quota {
			quota = room
		}
	}
	if s.Spill < quota {
		quota = s.Spill
	}
	return quota
}

// Cumulative is a snapshot of monotone admission counters plus the
// instantaneous occupancies, as fed to Controller.Step. The controller
// differences successive snapshots into window Samples itself.
type Cumulative struct {
	// Admitted through Executed are the monotone admission-outcome
	// counters: tasks admitted past the gate, parked in the spillway,
	// rejected outright, re-submitted from the spillway, and run.
	Admitted   int64
	Deferred   int64
	Shed       int64
	Readmitted int64
	Executed   int64
	// Pending and Spill are instantaneous occupancies, not cumulative
	// counters.
	Pending int64
	Spill   int64
}

// Window records one controller decision for tracing.
type Window = ctl.Window[Sample, State]

// diffCumulative turns successive snapshots into one window's Sample.
func diffCumulative(prev, cur Cumulative) (Sample, Cumulative) {
	return Sample{
		Admitted:   cur.Admitted - prev.Admitted,
		Deferred:   cur.Deferred - prev.Deferred,
		Shed:       cur.Shed - prev.Shed,
		Readmitted: cur.Readmitted - prev.Readmitted,
		Executed:   cur.Executed - prev.Executed,
		Pending:    cur.Pending,
		Spill:      cur.Spill,
	}, cur
}

// Controller is Decide made stateful: the ctl.Loop that turns
// successive Cumulative snapshots into threshold decisions (State,
// Prime, Step). Not safe for concurrent use — one goroutine (the
// scheduler's controller loop, or the simtest harness) drives it.
type Controller = ctl.Loop[Cumulative, Sample, State]

// NewController validates cfg and returns a controller starting fully
// open (threshold at MaxPrio): admission only tightens on evidence.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return ctl.NewLoop(diffCumulative, func(cur State, s Sample) State {
		return Decide(cfg, cur, s)
	}, cfg.Open()), nil
}

// Spillway is the bounded deferral buffer between the admission gate
// and the shed decision: tasks above the threshold wait here, FIFO, for
// a window with spare capacity. All methods are safe for concurrent
// use — producers Offer while the controller goroutine drains.
type Spillway[T any] struct {
	mu   sync.Mutex
	buf  []T
	head int
	n    int
}

// NewSpillway returns an empty spillway holding at most capacity tasks.
// Capacity must be ≥ 1.
func NewSpillway[T any](capacity int) *Spillway[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Spillway[T]{buf: make([]T, capacity)}
}

// Offer parks v, reporting false (task must be shed) when full.
func (s *Spillway[T]) Offer(v T) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == len(s.buf) {
		return false
	}
	s.buf[(s.head+s.n)%len(s.buf)] = v
	s.n++
	return true
}

// DrainUpToInto removes up to len(out) tasks, oldest first, into the
// caller-owned out and returns the count — an allocation-free drain the
// scheduler's readmission path reuses one scratch buffer for.
func (s *Spillway[T]) DrainUpToInto(out []T) int {
	if len(out) == 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	max := len(out)
	if max > s.n {
		max = s.n
	}
	var zero T
	for i := 0; i < max; i++ {
		out[i] = s.buf[s.head]
		s.buf[s.head] = zero // drop the reference for the GC
		s.head = (s.head + 1) % len(s.buf)
	}
	s.n -= max
	return max
}

// Len returns the current occupancy.
func (s *Spillway[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Cap returns the capacity.
func (s *Spillway[T]) Cap() int { return len(s.buf) }
