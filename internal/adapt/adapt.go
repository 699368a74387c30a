// Package adapt implements a feedback controller that tunes the relaxed
// MultiQueue's two throughput knobs — per-place lane stickiness S and the
// worker pop batch size B — at runtime, from the scheduler's own counters
// and a windowed rank-error signal.
//
// The paper's central trade-off is ordering strictness versus
// scalability; PR 2 exposed it as fixed Config.Stickiness/Config.Batch
// knobs. But no static (S, B) is right across load phases: the MultiQueue
// line of work (Postnikova et al., "Multi-Queues Can Be State-of-the-Art
// Priority Schedulers") and adaptive-priority runtimes like INSPIRIT both
// show that contention- and workload-reactive parameters beat any fixed
// setting. This package closes the loop:
//
//   - every window (Config.Interval) the controller samples the cumulative
//     counters (pops, pop failures, pop retries, lane-contention events,
//     resticks, batch pops), the outstanding-task count, and the rank-error
//     p99 estimate;
//   - while the structure is uncontended and the rank-error p99 is under
//     Config.RankErrorBudget, it grows B, then S (throughput direction);
//   - on contention (failed try-locks / bounded pop re-samples above
//     Config.RetryFrac per pop episode) it backs S off; on a budget breach
//     it backs B off, then S (quality direction).
//
// Moves are one step per window — a step doubles or halves a knob,
// clamped into Config.Limits — so the loop is AIMD-shaped (probe up while
// the signals are green, back off geometrically on a red window) and its
// reactions are easy to verify: the decision function Decide is pure, and
// the simtest subpackage replays whole scripted load phases against a
// Controller on a virtual clock.
//
// The controller is deliberately scheduler-agnostic: it consumes plain
// counter snapshots (Cumulative) and emits a State; internal/sched owns
// the goroutine that feeds it wall-clock windows and applies the result
// to the data structure (relaxed.DS.SetStickiness) and the worker pop
// loop.
package adapt

import (
	"fmt"
	"time"

	"repro/internal/ctl"
)

// Default controller parameters.
const (
	// DefaultMaxStickiness bounds how long a place may camp on one lane.
	// Beyond ~64 consecutive operations the locality win has flattened
	// while the expected rank error keeps growing linearly with S.
	DefaultMaxStickiness = 64
	// DefaultMaxBatch bounds the worker pop batch. It stays well under the
	// structures' native per-call batch cap (sched.MaxBatch) so the
	// controller can never push the worker loop into silent truncation.
	DefaultMaxBatch = 64
	// DefaultRetryFrac is the contention threshold: a window counts as
	// contended when more than this fraction of pop episodes needed a
	// retry or lost a lane try-lock.
	DefaultRetryFrac = 0.05
	// DefaultInterval is the sampling window the scheduler drives the
	// controller at.
	DefaultInterval = 10 * time.Millisecond
)

// Limits bounds the controller's outputs. The zero value of any field
// selects its default (min 1, max DefaultMaxStickiness/DefaultMaxBatch).
type Limits struct {
	// MinStickiness and MaxStickiness bound the tuned lane stickiness S.
	MinStickiness, MaxStickiness int
	// MinBatch and MaxBatch bound the tuned pop batch B.
	MinBatch, MaxBatch int
}

// withDefaults normalizes zero fields.
func (l Limits) withDefaults() Limits {
	if l.MinStickiness == 0 {
		l.MinStickiness = 1
	}
	if l.MaxStickiness == 0 {
		l.MaxStickiness = DefaultMaxStickiness
	}
	if l.MinBatch == 0 {
		l.MinBatch = 1
	}
	if l.MaxBatch == 0 {
		l.MaxBatch = DefaultMaxBatch
	}
	return l
}

// validate reports impossible bounds.
func (l Limits) validate() error {
	if l.MinStickiness < 1 || l.MaxStickiness < l.MinStickiness {
		return fmt.Errorf("adapt: stickiness bounds [%d, %d] invalid", l.MinStickiness, l.MaxStickiness)
	}
	if l.MinBatch < 1 || l.MaxBatch < l.MinBatch {
		return fmt.Errorf("adapt: batch bounds [%d, %d] invalid", l.MinBatch, l.MaxBatch)
	}
	return nil
}

// Clamp forces st into the limits.
func (l Limits) Clamp(st State) State {
	st.Stickiness = clamp(st.Stickiness, l.MinStickiness, l.MaxStickiness)
	st.Batch = clamp(st.Batch, l.MinBatch, l.MaxBatch)
	return st
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Config parameterizes a Controller.
type Config struct {
	// Limits bounds S and B; zero fields select defaults.
	Limits Limits
	// RankErrorBudget is the p99 rank-error budget: the controller backs
	// off whenever the sampled estimate exceeds it. 0 disables the budget
	// check (the controller then grows until contention alone stops it).
	RankErrorBudget float64
	// RetryFrac is the contention threshold in retries per pop episode
	// (0 selects DefaultRetryFrac).
	RetryFrac float64
	// Interval is the sampling window (0 selects DefaultInterval). The
	// controller itself is clock-free — Interval is consumed by whoever
	// drives Step (internal/sched's controller goroutine, or the simtest
	// harness's virtual clock).
	Interval time.Duration
}

// withDefaults normalizes zero fields.
func (c Config) withDefaults() Config {
	c.Limits = c.Limits.withDefaults()
	if c.RetryFrac == 0 {
		c.RetryFrac = DefaultRetryFrac
	}
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	return c
}

// Validate normalizes defaults and reports configuration errors.
func (c *Config) Validate() error {
	*c = c.withDefaults()
	if err := c.Limits.validate(); err != nil {
		return err
	}
	if c.RankErrorBudget < 0 {
		return fmt.Errorf("adapt: RankErrorBudget = %v, must be non-negative", c.RankErrorBudget)
	}
	if c.RetryFrac < 0 {
		return fmt.Errorf("adapt: RetryFrac = %v, must be non-negative", c.RetryFrac)
	}
	if c.Interval < time.Millisecond {
		return fmt.Errorf("adapt: Interval = %v, must be at least 1ms", c.Interval)
	}
	return nil
}

// State is one setting of the two tuned knobs.
type State struct {
	// Stickiness is the per-place lane stickiness S in force: how many
	// consecutive operations a place reuses its sampled lane for.
	Stickiness int `json:"stickiness"`
	// Batch is the worker pop batch B in force: the maximum number of
	// tasks popped per data structure lock episode.
	Batch int `json:"batch"`
}

// Sample is one window's observed signals: counter deltas over the
// window plus the instantaneous outstanding count and the rank-error
// estimate.
type Sample struct {
	// Pops is the number of tasks obtained over the window.
	Pops int64 `json:"pops"`
	// PopFailures is the number of failed pop episodes over the window.
	PopFailures int64 `json:"pop_failures"`
	// PopRetries is the number of bounded lane re-samples over the window.
	PopRetries int64 `json:"pop_retries"`
	// LaneContention is the number of failed lane try-locks over the
	// window (relaxed structures; 0 elsewhere).
	LaneContention int64 `json:"lane_contention"`
	// Resticks is the number of sticky lane re-selections over the window.
	Resticks int64 `json:"resticks"`
	// BatchPops is the number of multi-task pop episodes over the window.
	BatchPops int64 `json:"batch_pops"`
	// Pending is the outstanding-task count at the window's end.
	Pending int64 `json:"pending"`
	// RankErrP99 is the windowed rank-error p99 estimate (< 0 when no
	// signal is wired; the budget check is then skipped).
	RankErrP99 float64 `json:"rank_err_p99"`
}

// idle reports whether the window carries no throughput signal: nothing
// was obtained and nothing is outstanding. Failed pop episodes alone do
// not count — an empty serving scheduler polls and fails continuously,
// and tuning on that noise would walk the knobs around between bursts.
func (s Sample) idle() bool {
	return s.Pops == 0 && s.Pending == 0
}

// contended reports whether the window's retry-and-try-lock-failure rate
// exceeded the configured fraction of pop episodes.
func (s Sample) contended(retryFrac float64) bool {
	episodes := s.Pops + s.PopFailures
	if episodes == 0 {
		return false
	}
	return float64(s.PopRetries+s.LaneContention) > retryFrac*float64(episodes)
}

// overBudget reports whether the rank-error estimate breached the budget.
// A disabled budget (0) or an absent signal (< 0) never breaches.
func (s Sample) overBudget(budget float64) bool {
	return budget > 0 && s.RankErrP99 >= 0 && s.RankErrP99 > budget
}

// StepUp is one growth step: doubling, saturated at max. Exported so the
// one-step-per-window property is testable against the same arithmetic
// Decide uses.
func StepUp(v, max int) int {
	if v < 1 {
		v = 1
	}
	if v > max/2 {
		return max
	}
	return v * 2
}

// StepDown is one backoff step: halving, saturated at min.
func StepDown(v, min int) int {
	v /= 2
	if v < min {
		return min
	}
	return v
}

// Decide is the pure per-window decision function. Guarantees, each
// window, for any inputs (the property tests pin all three):
//
//   - the returned state never leaves cfg.Limits;
//   - each of S and B moves by at most one step (StepUp/StepDown);
//   - a zero-contention, under-budget window never decreases B (or S).
//
// The policy: idle windows hold (no signal, no move). Contended windows
// shrink S — stickiness is what piles places onto the same lanes, and
// failed try-locks are its direct cost — but only while S has room to
// shrink: a workload whose baseline collision rate exceeds the
// threshold even at the minimum S (heavy pushers colliding with S = 1)
// must not have the contention branch permanently veto all batch
// tuning, so with S at its floor the window falls through to the
// budget/growth logic (where growing B amortizes lock acquisitions and
// so reduces contention). Over-budget windows shrink B first (batching
// coarsens ordering and adds latency), then S. Good windows grow B to
// its bound, then S — at most one knob per window, so every move's
// effect is observable in the next window's sample before the
// controller compounds it.
func Decide(cfg Config, cur State, s Sample) State {
	cfg = cfg.withDefaults()
	l := cfg.Limits
	cur = l.Clamp(cur)
	if s.idle() {
		return cur
	}
	switch {
	case s.contended(cfg.RetryFrac) && cur.Stickiness > l.MinStickiness:
		cur.Stickiness = StepDown(cur.Stickiness, l.MinStickiness)
	case s.overBudget(cfg.RankErrorBudget):
		if cur.Batch > l.MinBatch {
			cur.Batch = StepDown(cur.Batch, l.MinBatch)
		} else {
			cur.Stickiness = StepDown(cur.Stickiness, l.MinStickiness)
		}
	default:
		if cur.Batch < l.MaxBatch {
			cur.Batch = StepUp(cur.Batch, l.MaxBatch)
		} else if cur.Stickiness < l.MaxStickiness {
			cur.Stickiness = StepUp(cur.Stickiness, l.MaxStickiness)
		}
	}
	return cur
}

// Cumulative is a snapshot of monotone counters plus the instantaneous
// signals, as fed to Controller.Step. The controller differences
// successive snapshots into window Samples itself.
type Cumulative struct {
	// Pops through BatchPops mirror the monotone core.Stats counters:
	// successful pop episodes, failed ones, spurious-failure retries,
	// failed lane try-locks, sticky lane re-selections, and multi-task
	// pop episodes.
	Pops           int64
	PopFailures    int64
	PopRetries     int64
	LaneContention int64
	Resticks       int64
	BatchPops      int64
	// Pending is the instantaneous outstanding-task count, not a
	// cumulative counter.
	Pending int64
	// RankErrP99 is the instantaneous windowed estimate, not a cumulative
	// counter (< 0 when no signal is wired).
	RankErrP99 float64
}

// Window records one controller decision for tracing: the virtual or
// wall time of the decision, the window's sample, and the state in force
// after the decision.
type Window = ctl.Window[Sample, State]

// diffCumulative turns successive snapshots into one window's Sample:
// the monotone counters are differenced, the instantaneous signals
// (Pending, RankErrP99) are carried as-is.
func diffCumulative(prev, cur Cumulative) (Sample, Cumulative) {
	return Sample{
		Pops:           cur.Pops - prev.Pops,
		PopFailures:    cur.PopFailures - prev.PopFailures,
		PopRetries:     cur.PopRetries - prev.PopRetries,
		LaneContention: cur.LaneContention - prev.LaneContention,
		Resticks:       cur.Resticks - prev.Resticks,
		BatchPops:      cur.BatchPops - prev.BatchPops,
		Pending:        cur.Pending,
		RankErrP99:     cur.RankErrP99,
	}, cur
}

// Controller is Decide made stateful: the ctl.Loop that owns the
// current state and the previous counter snapshot, and turns successive
// Cumulative snapshots into decisions (State, Prime, Step). It is not
// safe for concurrent use — one goroutine (the scheduler's controller
// loop, or a simulation harness) drives it.
type Controller = ctl.Loop[Cumulative, Sample, State]

// NewController validates cfg and returns a controller starting at seed
// (clamped into the limits).
func NewController(cfg Config, seed State) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return ctl.NewLoop(diffCumulative, func(cur State, s Sample) State {
		return Decide(cfg, cur, s)
	}, cfg.Limits.Clamp(seed)), nil
}
