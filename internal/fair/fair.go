// Package fair implements multi-tenant weighted-fair admission control
// for the open-system serving mode: a policy layer above the priority
// ordering that keeps one hot tenant from monopolizing the admission
// gate and the lanes, even when every one of its tasks is individually
// high-priority.
//
// The relaxed structures order by priority; INSPIRIT-style adaptive
// scheduling argues priority *assignment* is a separate policy layer,
// and "millions of users" means tenants, not priorities. Without this
// layer a tenant submitting 10× everyone else's traffic — or inflating
// its priorities — starves the rest behind the backpressure threshold,
// which is global. This package generalizes backpressure.ProtectedBand
// from a priority band to per-tenant quotas, as the second of the
// scheduler's two controllers on the sample → decide → apply pattern
// (internal/ctl):
//
//   - the scheduler samples, per window, its cumulative per-tenant
//     admission counters (arrived/admitted/deferred/shed/readmitted/
//     executed) plus the instantaneous per-tenant outstanding counts;
//   - the pure Decide function watches each tenant's sojourn budget —
//     the tenant's backlog against what its observed service rate
//     clears within the shared SojournBudget — and gates when any
//     tenant breaches while the system is saturated;
//   - while gated, each tenant's admission budget for the next window
//     is its weighted max-min fair share of the observed service
//     capacity (water-filling over smoothed demand): tenants under
//     their share are never gated, and the leftover flows to the hot
//     ones in weight proportion, so sustained uniform overload drives
//     the quotas to the weight vector;
//   - every tenant with positive weight also gets an unconditional
//     per-window floor (at least one task, DefaultFloorFrac of its
//     capacity share otherwise). Floor admissions bypass the priority
//     threshold entirely — the per-tenant generalization of the
//     protected band — so an adversary inflating its priorities cannot
//     starve a low-weight tenant's ordinary traffic.
//
// The decision function is pure and the controller clock-free, so the
// simtest subpackage replays scripted hot-tenant, diurnal and
// priority-inflation scenarios on a virtual clock, bit-identically.
package fair

import (
	"fmt"
	"time"

	"repro/internal/ctl"
)

// Default controller parameters.
const (
	// DefaultSojournBudget is the per-tenant SLO band every tenant's
	// backlog is policed against.
	DefaultSojournBudget = 50 * time.Millisecond
	// DefaultInterval is the sampling window the scheduler drives the
	// controller at (shared cadence with the other controllers).
	DefaultInterval = 10 * time.Millisecond
	// DefaultFloorFrac is the fraction of the observed capacity reserved
	// as unconditional per-tenant floors, split by weight (every
	// positive-weight tenant's floor is at least one task per window
	// regardless).
	DefaultFloorFrac = 0.05
	// MaxTenants bounds the tenant-id domain: per-tenant hot-path
	// counters are padded to a cache-line stride, so an unbounded domain
	// would translate a config typo into an enormous allocation.
	MaxTenants = 1024
)

// demandSlack is the headroom multiplier on a tenant's observed
// arrivals when water-filling: a tenant under its fair share keeps a
// quota ~2× its current rate, so organic growth is not clipped at last
// window's demand while the leftover still flows to hotter tenants.
const demandSlack = 2

// Config parameterizes the fairness controller over a fixed tenant
// domain [0, len(Weights)).
type Config struct {
	// Weights are the per-tenant fair-share weights; the tenant count is
	// len(Weights). Required (1..MaxTenants entries, each ≥ 0, at least
	// one > 0). A zero-weight tenant gets no floor and no share — it is
	// admitted only through whatever the priority gate leaves open.
	Weights []int64
	// SojournBudget is the shared per-tenant SLO band (0 selects
	// DefaultSojournBudget): tenant t is overloaded when its backlog
	// exceeds what its observed service rate clears within the band.
	SojournBudget time.Duration
	// Interval is the sampling window (0 selects DefaultInterval). The
	// controller itself is clock-free — Interval only scales the
	// sojourn-budget arithmetic and is consumed by whoever drives Step.
	Interval time.Duration
}

// withDefaults normalizes zero fields.
func (c Config) withDefaults() Config {
	if c.SojournBudget == 0 {
		c.SojournBudget = DefaultSojournBudget
	}
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	return c
}

// Validate normalizes defaults and reports configuration errors.
func (c *Config) Validate() error {
	*c = c.withDefaults()
	if len(c.Weights) < 1 || len(c.Weights) > MaxTenants {
		return fmt.Errorf("fair: %d tenant weights, need 1..%d", len(c.Weights), MaxTenants)
	}
	var total int64
	for t, w := range c.Weights {
		if w < 0 {
			return fmt.Errorf("fair: Weights[%d] = %d, must be non-negative", t, w)
		}
		total += w
	}
	if total == 0 {
		return fmt.Errorf("fair: all %d tenant weights are zero, at least one must be positive", len(c.Weights))
	}
	if c.SojournBudget < time.Millisecond {
		return fmt.Errorf("fair: SojournBudget = %v, must be at least 1ms", c.SojournBudget)
	}
	if c.Interval < time.Millisecond {
		return fmt.Errorf("fair: Interval = %v, must be at least 1ms", c.Interval)
	}
	return nil
}

// Tenants returns the tenant count.
func (c Config) Tenants() int { return len(c.Weights) }

// DepthBudget converts the SLO band into one tenant's backlog bound: the
// number of tasks the tenant's observed per-window service rate
// (executed) clears within SojournBudget. A tenant whose window executed
// nothing has a zero budget — any backlog is then overload for it.
func (c Config) DepthBudget(executed int64) int64 {
	if executed <= 0 {
		return 0
	}
	return int64(float64(executed) * float64(c.SojournBudget) / float64(c.Interval))
}

// State is the tenant admission policy in force. Ungated (the fully
// open start), every tenant is unlimited. Gated, tenant t may admit at
// most Quotas[t] tasks per window, the first Floors[t] of which bypass
// the priority threshold.
type State struct {
	// Gated reports whether the quotas are enforced at all.
	Gated bool `json:"gated"`
	// Quotas is each tenant's per-window admission budget (water-filled
	// fair share; meaningful only while gated). Quotas[t] ≥ Floors[t].
	Quotas []int64 `json:"quotas,omitempty"`
	// Floors is each tenant's unconditional per-window admission floor:
	// at least 1 for every positive-weight tenant, so no tenant ever
	// starves. Floor admissions bypass the priority gate.
	Floors []int64 `json:"floors,omitempty"`
	// Capacity is the smoothed service-capacity estimate (tasks per
	// window) the quotas were filled from.
	Capacity float64 `json:"capacity"`
}

// Open returns the fully open (ungated) state.
func (c Config) Open() State { return State{} }

// Sample is one window's observed per-tenant signals: admission counter
// deltas over the window plus the instantaneous outstanding counts. All
// slices are indexed by tenant and sized Config.Tenants().
type Sample struct {
	// Arrived counts submissions offered (before any gate).
	Arrived []int64 `json:"arrived"`
	// Admitted counts tasks accepted past both gates.
	Admitted []int64 `json:"admitted"`
	// Deferred counts tasks parked in the spillway.
	Deferred []int64 `json:"deferred"`
	// Shed counts tasks rejected outright.
	Shed []int64 `json:"shed"`
	// Readmitted counts spilled tasks re-submitted.
	Readmitted []int64 `json:"readmitted"`
	// Executed counts tasks the workers completed.
	Executed []int64 `json:"executed"`
	// Pending is each tenant's outstanding-task count at the window's
	// end (admitted or spilled, not yet executed) — instantaneous, not a
	// delta.
	Pending []int64 `json:"pending"`
}

// Fits reports whether every per-tenant slice has exactly n entries,
// the shape Decide indexes without checking. A Controller's own samples
// always fit; one parsed from a capture file may not.
func (s Sample) Fits(n int) bool {
	for _, xs := range [...][]int64{s.Arrived, s.Admitted, s.Deferred, s.Shed, s.Readmitted, s.Executed, s.Pending} {
		if len(xs) != n {
			return false
		}
	}
	return true
}

// totals sums a per-tenant slice.
func totals(xs []int64) int64 {
	var n int64
	for _, x := range xs {
		n += x
	}
	return n
}

// overloaded reports whether the window demands gating: some tenant's
// backlog exceeds its SLO depth budget while traffic flows. An idle
// system (nothing pending anywhere) is never overloaded.
func (s Sample) overloaded(c Config) bool {
	for t := range s.Pending {
		if s.Pending[t] > 0 && s.Pending[t] > c.DepthBudget(s.Executed[t]) {
			return true
		}
	}
	return false
}

// underloaded reports clear headroom: every tenant's backlog is at most
// half its depth budget — the AIMD-style hysteresis gap that keeps the
// gate from oscillating around the budget boundary.
func (s Sample) underloaded(c Config) bool {
	for t := range s.Pending {
		if s.Pending[t]*2 > c.DepthBudget(s.Executed[t]) {
			return false
		}
	}
	return true
}

// Waterfill computes the weighted max-min fair allocation of capacity
// over the per-tenant demands: every positive-weight tenant starts at
// its floor, and the remaining capacity is repeatedly split in weight
// proportion among tenants still below their demand, so tenants under
// their share are fully satisfied and the leftover concentrates on the
// hot ones. Exported so the simtest plant and the property tests pin
// the same arithmetic Decide uses. Returns the quotas and floors.
func Waterfill(cfg Config, capacity int64, demand []int64) (quotas, floors []int64) {
	n := len(cfg.Weights)
	quotas = make([]int64, n)
	floors = make([]int64, n)
	var totalW int64
	for _, w := range cfg.Weights {
		totalW += w
	}
	pool := capacity
	for t, w := range cfg.Weights {
		if w == 0 {
			continue
		}
		f := int64(DefaultFloorFrac * float64(capacity) * float64(w) / float64(totalW))
		if f < 1 {
			f = 1
		}
		floors[t] = f
		quotas[t] = f
		pool -= f
	}
	if pool < 0 {
		pool = 0
	}
	// Iterative water-filling: split the pool by weight among tenants
	// whose quota is still under their demand; tenants that saturate
	// return their surplus to the pool for the next round. n rounds
	// suffice — every round saturates at least one tenant or ends.
	for round := 0; round < n && pool > 0; round++ {
		var activeW int64
		for t, w := range cfg.Weights {
			if w > 0 && quotas[t] < demand[t] {
				activeW += w
			}
		}
		if activeW == 0 {
			break
		}
		next := pool
		progressed := false
		for t, w := range cfg.Weights {
			if w == 0 || quotas[t] >= demand[t] {
				continue
			}
			give := pool * w / activeW
			if give == 0 {
				give = 1 // integer-division dust: still make progress
			}
			if room := demand[t] - quotas[t]; give > room {
				give = room
			}
			if give > next {
				give = next
			}
			quotas[t] += give
			next -= give
			progressed = progressed || give > 0
		}
		pool = next
		if !progressed {
			break
		}
	}
	return quotas, floors
}

// Decide is the pure per-window decision function. Guarantees, for any
// inputs (the property tests pin them):
//
//   - every positive-weight tenant's floor is ≥ 1 and its quota ≥ its
//     floor, so no tenant with weight can ever be starved by the gate;
//   - the quota total never exceeds the capacity estimate plus the
//     floor reserve — gating cannot admit more than service clears;
//   - gating only engages on evidence (a tenant SLO breach) and only
//     releases with clear headroom — the hysteresis gap.
//
// The policy: the capacity estimate is an equal-weight EWMA of the
// window's total executed count (smoothing out scheduling jitter while
// staying deterministic). An overloaded window — some tenant's backlog
// past its SLO depth budget — engages the gate and water-fills the
// capacity over the tenants' smoothed demand (demandSlack× arrivals
// plus current backlog). A window with every tenant at clear headroom
// releases the gate; anything in between holds, re-filling quotas from
// fresh demand while gated.
func Decide(cfg Config, cur State, s Sample) State {
	cfg = cfg.withDefaults()
	next := State{Capacity: cur.Capacity}
	executed := totals(s.Executed)
	if next.Capacity == 0 {
		next.Capacity = float64(executed)
	} else {
		next.Capacity = (next.Capacity + float64(executed)) / 2
	}
	if inflow := totals(s.Admitted) + totals(s.Readmitted); cur.Gated &&
		executed >= inflow && float64(totals(s.Pending)) > next.Capacity {
		// Gate-starvation probe. The capacity estimate is measured from
		// executed work, but while gated the gate itself limits execution
		// — so a slow window ratchets the estimate down, which shrinks
		// the quotas, which shrinks the next window's executed count,
		// monotonically down to the floors, where the system wedges with
		// a full backlog and near-idle workers. This window shows the
		// wedge signature: service cleared everything the gate admitted
		// while real backlog waited, so the shortfall is self-inflicted,
		// not a slowdown. Grow the estimate multiplicatively instead,
		// bounded by the waiting backlog; a genuine slowdown re-enters
		// the EWMA path the moment inflow outruns service again.
		if probe := cur.Capacity * 1.25; probe > next.Capacity {
			if limit := float64(totals(s.Pending)); probe > limit {
				probe = limit
			}
			next.Capacity = probe
		}
	}
	switch {
	case s.overloaded(cfg):
		next.Gated = true
	case s.underloaded(cfg):
		next.Gated = false
	default:
		next.Gated = cur.Gated
	}
	if !next.Gated {
		return next
	}
	capacity := int64(next.Capacity)
	if c := executed; c > capacity {
		capacity = c // saturated windows: trust the fresher figure
	}
	demand := make([]int64, len(cfg.Weights))
	for t := range demand {
		demand[t] = demandSlack*s.Arrived[t] + s.Pending[t]
	}
	next.Quotas, next.Floors = Waterfill(cfg, capacity, demand)
	return next
}

// Cumulative is a snapshot of monotone per-tenant admission counters
// plus the instantaneous outstanding counts, as fed to Controller.Step.
// The controller differences successive snapshots into window Samples
// itself, and keeps its own copy as the next baseline, so drivers may
// reuse their scratch between Steps.
type Cumulative struct {
	Arrived    []int64
	Admitted   []int64
	Deferred   []int64
	Shed       []int64
	Readmitted []int64
	Executed   []int64
	// Pending is instantaneous per-tenant occupancy, not cumulative.
	Pending []int64
}

// Window records one controller decision for tracing.
type Window = ctl.Window[Sample, State]

// sub returns cur-prev element-wise in a fresh slice (prev may be nil
// on the first window).
func sub(prev, cur []int64) []int64 {
	out := make([]int64, len(cur))
	for i := range cur {
		out[i] = cur[i]
		if i < len(prev) {
			out[i] -= prev[i]
		}
	}
	return out
}

// clone deep-copies a snapshot so the loop's retained baseline cannot
// alias a driver's reused scratch slices.
func (c Cumulative) clone() Cumulative {
	cp := func(xs []int64) []int64 {
		out := make([]int64, len(xs))
		copy(out, xs)
		return out
	}
	return Cumulative{
		Arrived:    cp(c.Arrived),
		Admitted:   cp(c.Admitted),
		Deferred:   cp(c.Deferred),
		Shed:       cp(c.Shed),
		Readmitted: cp(c.Readmitted),
		Executed:   cp(c.Executed),
		Pending:    cp(c.Pending),
	}
}

// diffCumulative turns successive snapshots into one window's Sample.
// The baseline it hands back is a clone: cur's slices stay the
// driver's to overwrite.
func diffCumulative(prev, cur Cumulative) (Sample, Cumulative) {
	return Sample{
		Arrived:    sub(prev.Arrived, cur.Arrived),
		Admitted:   sub(prev.Admitted, cur.Admitted),
		Deferred:   sub(prev.Deferred, cur.Deferred),
		Shed:       sub(prev.Shed, cur.Shed),
		Readmitted: sub(prev.Readmitted, cur.Readmitted),
		Executed:   sub(prev.Executed, cur.Executed),
		Pending:    sub(nil, cur.Pending),
	}, cur.clone()
}

// Controller is Decide made stateful: the ctl.Loop that turns
// successive Cumulative snapshots into per-tenant quota decisions
// (State, Prime, Step). Not safe for concurrent use — one goroutine
// (the scheduler's controller loop, or the simtest harness) drives it.
type Controller = ctl.Loop[Cumulative, Sample, State]

// NewController validates cfg and returns a controller starting
// ungated: quotas only engage on evidence.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return ctl.NewLoop(diffCumulative, func(cur State, s Sample) State {
		return Decide(cfg, cur, s)
	}, cfg.Open()), nil
}
