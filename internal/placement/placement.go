// Package placement is the lane-placement controller the grouped
// relaxed MultiQueue had: it tuned, at runtime, how many lane groups
// the structure was partitioned into, from the structure's own locality
// counters. The lane groups are gone (PR 22: on the one machine
// available no grouped row beat flat two-choice sampling, README "Why
// the lanes are flat"), and with them every product caller of this
// package. Like internal/pq/bucket.go and internal/kfifo it is priced
// by the ledger, no product caller: bench/ledger.go times
// NewController and Decide as placement.decide_us, so the code stays,
// unchanged, until ROADMAP item 1 (i) drops that row; then the package
// and its simtest go.
//
// What it decided. A fine partition kept every place's sampling,
// stickiness and lock traffic inside a handful of lanes its group mates
// shared; a partition finer than the traffic was balanced made home
// groups run dry, and every dry pop became a cross-group steal sweep.
// On the sample → decide → apply pattern (internal/ctl):
//
//   - every window the scheduler sampled the structure's cumulative
//     counters: pops, failed pop episodes, failed lane try-locks, and
//     the two locality counters — cross-group steal attempts (Steals)
//     and tasks actually obtained out-of-group (CrossGroupPops) — plus
//     the outstanding-task count;
//   - the pure Decide function maintains the active group count: a
//     window whose cross-group pop fraction exceeds Config.StealFrac
//     merges (halves the group count), a window whose lane-contention
//     rate exceeds Config.ContendFrac with a quiet steal signal splits
//     (doubles it), and anything else holds;
//   - moves are one step per window within [1, Config.MaxGroups].
//
// The decision function is pure and the controller clock-free, so the
// simtest subpackage replays whole scripted load scenarios (balanced
// contention, producer-group imbalance, drain) against an analytic
// plant on a virtual clock, bit-identically.
package placement

import (
	"fmt"
	"time"

	"repro/internal/ctl"
)

// Default controller parameters.
const (
	// DefaultStealFrac is the merge threshold: a window in which more
	// than this fraction of obtained tasks came from out-of-group lanes
	// halves the group count. Stealing is the partition's failure mode —
	// each steal pays a sweep over the whole remaining lane array — so
	// the threshold is deliberately tighter than the split threshold is
	// generous.
	DefaultStealFrac = 0.10
	// DefaultContendFrac is the split threshold: a window with more
	// failed lane try-locks than this fraction of pop episodes doubles
	// the group count (fewer places per lane set), provided the steal
	// signal is quiet.
	DefaultContendFrac = 0.05
	// DefaultInterval is the sampling window the scheduler drives the
	// controller at (shared cadence with the other runtime controllers).
	DefaultInterval = 10 * time.Millisecond
)

// Config parameterizes the placement controller.
type Config struct {
	// MaxGroups is the configured (finest) lane partition — the ceiling
	// the controller may split up to, and the group count the home-group
	// mapping was laid out for. Required ≥ 1.
	MaxGroups int
	// StealFrac is the merge threshold in cross-group pops per obtained
	// task (0 selects DefaultStealFrac).
	StealFrac float64
	// ContendFrac is the split threshold in failed lane try-locks per
	// pop episode (0 selects DefaultContendFrac).
	ContendFrac float64
	// Interval is the sampling window (0 selects DefaultInterval). The
	// controller itself is clock-free — Interval is consumed by whoever
	// drives Step.
	Interval time.Duration
}

// withDefaults normalizes zero fields.
func (c Config) withDefaults() Config {
	if c.StealFrac == 0 {
		c.StealFrac = DefaultStealFrac
	}
	if c.ContendFrac == 0 {
		c.ContendFrac = DefaultContendFrac
	}
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	return c
}

// Validate normalizes defaults and reports configuration errors.
func (c *Config) Validate() error {
	*c = c.withDefaults()
	if c.MaxGroups < 1 {
		return fmt.Errorf("placement: MaxGroups = %d, need at least 1", c.MaxGroups)
	}
	if c.StealFrac < 0 || c.ContendFrac < 0 {
		return fmt.Errorf("placement: negative threshold (StealFrac %v, ContendFrac %v)", c.StealFrac, c.ContendFrac)
	}
	if c.Interval < time.Millisecond {
		return fmt.Errorf("placement: Interval = %v, must be at least 1ms", c.Interval)
	}
	return nil
}

// Clamp forces st's group count into [1, MaxGroups].
func (c Config) Clamp(st State) State {
	if st.Groups < 1 {
		st.Groups = 1
	}
	if st.Groups > c.MaxGroups {
		st.Groups = c.MaxGroups
	}
	return st
}

// State is the active lane-group count in force.
type State struct {
	// Groups is the number of lane groups the structure is partitioned
	// into, in [1, Config.MaxGroups].
	Groups int `json:"groups"`
}

// Sample is one window's observed signals: counter deltas over the
// window plus the instantaneous outstanding count.
type Sample struct {
	// Pops is the number of tasks obtained over the window.
	Pops int64 `json:"pops"`
	// PopFailures is the number of failed pop episodes over the window.
	PopFailures int64 `json:"pop_failures"`
	// LaneContention is the number of failed lane try-locks over the
	// window.
	LaneContention int64 `json:"lane_contention"`
	// Steals is the number of cross-group steal sweeps attempted over
	// the window (a pop whose home group was empty or fully contended).
	Steals int64 `json:"steals"`
	// CrossGroupPops is the number of tasks obtained from out-of-group
	// lanes over the window.
	CrossGroupPops int64 `json:"cross_group_pops"`
	// Pending is the outstanding-task count at the window's end.
	Pending int64 `json:"pending"`
}

// idle reports whether the window carries no signal: nothing was
// obtained and nothing is outstanding. An idle serving scheduler polls
// and fails continuously; regrouping on that noise would walk the
// partition around between bursts.
func (s Sample) idle() bool { return s.Pops == 0 && s.Pending == 0 }

// stealing reports whether the window's cross-group pop fraction
// exceeded the merge threshold.
func (s Sample) stealing(frac float64) bool {
	if s.Pops == 0 {
		return false
	}
	return float64(s.CrossGroupPops) > frac*float64(s.Pops)
}

// contended reports whether the window's failed-try-lock rate exceeded
// the split threshold.
func (s Sample) contended(frac float64) bool {
	episodes := s.Pops + s.PopFailures
	if episodes == 0 {
		return false
	}
	return float64(s.LaneContention) > frac*float64(episodes)
}

// StepUp is one split step: doubling, saturated at max. Exported so the
// one-step-per-window property is testable against the same arithmetic
// Decide uses.
func StepUp(g, max int) int {
	if g < 1 {
		g = 1
	}
	if g > max/2 {
		return max
	}
	return g * 2
}

// StepDown is one merge step: halving, saturated at 1 (flat).
func StepDown(g int) int {
	g /= 2
	if g < 1 {
		return 1
	}
	return g
}

// Decide is the pure per-window decision function. Guarantees, each
// window, for any inputs (the property tests pin all three):
//
//   - the returned group count never leaves [1, MaxGroups];
//   - it moves by at most one step (StepUp/StepDown);
//   - a window over the steal threshold never yields a finer partition
//     than the current one.
//
// The policy: idle windows hold. A stealing window merges one step —
// and stealing outranks contention, because a starved fine partition
// also looks contended (every steal sweep hammers foreign lanes), and
// splitting it further would feed the failure mode. A contended window
// with a quiet steal signal splits one step. Anything else holds: the
// controller has no growth pressure of its own, because unlike
// stickiness or batch, a finer partition is not generically better —
// it is only better when contention says the lanes are being fought
// over.
func Decide(cfg Config, cur State, s Sample) State {
	cfg = cfg.withDefaults()
	cur = cfg.Clamp(cur)
	if s.idle() {
		return cur
	}
	switch {
	case s.stealing(cfg.StealFrac):
		cur.Groups = StepDown(cur.Groups)
	case s.contended(cfg.ContendFrac) && cur.Groups < cfg.MaxGroups:
		cur.Groups = StepUp(cur.Groups, cfg.MaxGroups)
	}
	return cur
}

// Cumulative is a snapshot of monotone counters plus the instantaneous
// outstanding count, as fed to Controller.Step. The controller
// differences successive snapshots into window Samples itself.
type Cumulative struct {
	// Pops through CrossGroupPops mirror the monotone core.Stats
	// counters: successful pop episodes, failed ones, failed lane
	// try-locks, steal sweeps, and tasks obtained out-of-group.
	Pops           int64
	PopFailures    int64
	LaneContention int64
	Steals         int64
	CrossGroupPops int64
	// Pending is the instantaneous outstanding count, not a cumulative
	// counter.
	Pending int64
}

// Window records one controller decision for tracing.
type Window = ctl.Window[Sample, State]

// diffCumulative turns successive snapshots into one window's Sample.
func diffCumulative(prev, cur Cumulative) (Sample, Cumulative) {
	return Sample{
		Pops:           cur.Pops - prev.Pops,
		PopFailures:    cur.PopFailures - prev.PopFailures,
		LaneContention: cur.LaneContention - prev.LaneContention,
		Steals:         cur.Steals - prev.Steals,
		CrossGroupPops: cur.CrossGroupPops - prev.CrossGroupPops,
		Pending:        cur.Pending,
	}, cur
}

// Controller is Decide made stateful: the ctl.Loop that turns
// successive Cumulative snapshots into group-count decisions (State,
// Prime, Step). Not safe for concurrent use — one goroutine (the
// scheduler's controller loop, or the simtest harness) drives it.
type Controller = ctl.Loop[Cumulative, Sample, State]

// NewController validates cfg and returns a controller starting at seed
// (clamped into [1, MaxGroups]). Seeding at MaxGroups — the finest
// partition — is the scheduler's choice: start local, merge on
// evidence.
func NewController(cfg Config, seed State) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return ctl.NewLoop(diffCumulative, func(cur State, s Sample) State {
		return Decide(cfg, cur, s)
	}, cfg.Clamp(seed)), nil
}
