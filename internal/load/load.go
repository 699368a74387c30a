// Package load is a streaming workload generator for the open-system
// serving mode: producer goroutines submit prioritized tasks into a
// serving sched.Scheduler following a configurable arrival process, and
// every executed task is instrumented for the two quantities the relaxed
// priority scheduling literature trades against each other (Postnikova
// et al., "Multi-Queues Can Be State-of-the-Art Priority Schedulers"):
//
//   - sojourn latency: wall time from submission to execution, reported
//     as a streaming p50/p95/p99 histogram;
//   - pop rank error: how many live (submitted, not yet executed) tasks
//     of strictly better priority existed at the moment a task ran —
//     zero for a strict priority queue, and the quantity a ρ-relaxed
//     structure bounds by ρ.
//
// Rank error is tracked with a fixed array of bucketed live counters
// over the priority range: submission increments the priority's bucket,
// execution decrements it and (on sampled tasks) sums the strictly-lower
// buckets. The result is a slight underestimate — ties inside the popped
// task's own bucket are not counted — with O(buckets) reads per sampled
// pop and no shared locks, which is what lets the tracker ride along at
// hundreds of thousands of pops per second.
package load

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/backpressure"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Arrival selects the arrival process driving the producers.
type Arrival int

const (
	// Poisson: exponential inter-arrival times at Rate/Producers per
	// producer — the classic open-system model.
	Poisson Arrival = iota
	// Bursty: an on-off process; Poisson arrivals at the per-producer
	// share of Rate during OnPeriod, silence during OffPeriod.
	Bursty
	// ClosedLoop: the producers collectively keep Producers×Window tasks
	// outstanding and submit a new task when one completes (Rate is
	// ignored).
	ClosedLoop
)

// String returns the arrival process name used in reports.
func (a Arrival) String() string {
	switch a {
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	case ClosedLoop:
		return "closed-loop"
	default:
		return fmt.Sprintf("arrival(%d)", int(a))
	}
}

// PrioDist selects how task priorities are drawn.
type PrioDist int

const (
	// UniformPrio: uniform over [0, PrioRange).
	UniformPrio PrioDist = iota
	// SkewedPrio: the square of a uniform draw — mass concentrated at
	// high priorities (small values), the contended regime for the top
	// of a priority queue.
	SkewedPrio
	// RampPrio: priorities increase with submission time (the monotone
	// pattern of label-setting algorithms), with a small uniform jitter.
	RampPrio
)

// String returns the distribution name used in reports.
func (d PrioDist) String() string {
	switch d {
	case UniformPrio:
		return "uniform"
	case SkewedPrio:
		return "skewed"
	case RampPrio:
		return "ramp"
	default:
		return fmt.Sprintf("dist(%d)", int(d))
	}
}

// Scenario selects a scripted traffic pattern layered over the arrival
// process (multi-tenant runs; see Config.TenantWeights).
type Scenario int

const (
	// SteadyLoad: the arrival mix is fixed for the whole run.
	SteadyLoad Scenario = iota
	// DiurnalRamp: the aggregate arrival rate follows a day-shaped
	// profile — 40% of Rate in the first quarter of the run, a linear
	// ramp up to the full Rate through the second quarter, the full
	// Rate through the third, and a ramp back down in the last —
	// implemented by thinning, so Poisson arrivals stay Poisson.
	DiurnalRamp
	// PriorityInflation: from the midpoint of the run the hot tenant
	// (tenant 0) inflates every submission into the most urgent eighth
	// of the priority range, the adversarial pattern a priority-only
	// admission gate cannot defend against. Requires TenantWeights
	// with at least two tenants.
	PriorityInflation
)

// String returns the scenario name used in reports.
func (sc Scenario) String() string {
	switch sc {
	case SteadyLoad:
		return "steady"
	case DiurnalRamp:
		return "diurnal"
	case PriorityInflation:
		return "inflation"
	default:
		return fmt.Sprintf("scenario(%d)", int(sc))
	}
}

// Task is the unit of work the generator submits: a priority, the
// submission timestamp (nanoseconds since the run's epoch), and — for
// multi-tenant runs — the submitting tenant.
type Task struct {
	Prio   int64
	Enq    int64
	Tenant int
}

// Config parameterizes one generator run.
type Config struct {
	// Strategy selects the scheduler's backing data structure.
	Strategy sched.Strategy
	// Places is the number of worker places (default GOMAXPROCS).
	Places int
	// K is the relaxation parameter. 0 (the zero value) selects the
	// paper's default of 512; pass a negative value for strict k = 0,
	// which zero itself cannot express here.
	K int
	// Producers is the number of submitting goroutines (default 1).
	Producers int
	// Duration is how long producers generate traffic (default 1s).
	Duration time.Duration
	// Arrival selects the arrival process.
	Arrival Arrival
	// Rate is the target aggregate arrival rate in tasks/second across
	// all producers (Poisson; Bursty applies it during on-periods).
	// Default 50000.
	Rate float64
	// OnPeriod/OffPeriod shape the Bursty process (defaults 10ms/10ms).
	OnPeriod, OffPeriod time.Duration
	// Window is the per-producer outstanding-task budget for ClosedLoop
	// (default 64).
	Window int
	// Dist selects the priority distribution.
	Dist PrioDist
	// PrioRange bounds priorities to [0, PrioRange); must be a power of
	// two (default 1<<20).
	PrioRange int64
	// WorkSpin adds synthetic per-task work: WorkSpin iterations of a
	// small arithmetic loop (default 0: measure pure scheduling).
	WorkSpin int
	// RankSample measures rank error on every RankSample-th executed
	// task (default 1: every task).
	RankSample int
	// Batch is the operation batch size (default 1: unbatched). It sets
	// both ends of the pipeline: producers buffer Batch drawn tasks and
	// submit them through Scheduler.SubmitAll in one injector episode,
	// and workers pop up to Batch tasks per data structure lock episode
	// (sched.Config.Batch). Tasks keep their arrival-instant timestamps
	// while buffered, so batching delay shows up in the sojourn
	// percentiles rather than being hidden. For ClosedLoop, Batch must
	// not exceed Window (a producer buffering more tasks than its
	// outstanding budget would deadlock on its own tokens).
	Batch int
	// Stickiness is the relaxed strategies' per-place lane stickiness S
	// (default: re-sample every operation). Ignored by the others.
	Stickiness int
	// Resolution, when > 1, selects the relaxed strategies'
	// multiresolution lane mode (sched.Config.Resolution): the priority
	// domain is bucketed into bands of this width inside every lane,
	// trading up to one band's live occupancy of extra rank error for
	// O(1) lane operations. 0 and 1 keep the exact per-lane heaps.
	Resolution int64
	// LaneGroups partitions the relaxed strategies' lanes into
	// per-producer-group lane groups with group-local sampling and
	// bounded cross-group stealing (sched.Config.LaneGroups). 0 and 1
	// select the flat structure; the others ignore it. Grouped runs
	// report the steal rate, per-group executed/contention stats and —
	// under AdaptivePlacement — the controller's group-count trace.
	LaneGroups int
	// AdaptivePlacement hands the group count to the placement
	// controller (sched.Config.AdaptivePlacement): LaneGroups becomes
	// the finest partition and the controller merges/splits from the
	// steal and contention signals.
	AdaptivePlacement bool
	// Adaptive enables the scheduler's runtime S/B controller
	// (sched.Config.Adaptive): Stickiness and Batch become seeds rather
	// than fixed settings, and the generator wires a decaying rank-error
	// estimator (stats.DecayingHist over the sampled pop rank errors)
	// into the controller as its budget signal. Note Batch keeps setting
	// the producers' submit batch statically — the controller only moves
	// the workers' pop batch.
	Adaptive bool
	// RankErrorBudget is the controllers' p99 rank-error budget
	// (0: none). The adaptive controller backs S/B off over it; the
	// backpressure controller treats a breach as an overload signal.
	RankErrorBudget float64
	// AdaptInterval is the controller window (0: adapt.DefaultInterval),
	// shared by the adaptive and backpressure controllers.
	AdaptInterval time.Duration
	// Backpressure enables the scheduler's priority-aware admission
	// controller (sched.Config.Backpressure): overload sheds or defers
	// the lowest-priority submissions, and the generator records the
	// shed rate, goodput by priority band, and the controller's
	// threshold trace. When RankErrorBudget > 0 the rank-error
	// estimator is wired as the controller's second overload signal
	// even for fixed-knob (non-adaptive) runs.
	Backpressure bool
	// SojournBudget is the admission controller's target sojourn time
	// (0: backpressure.DefaultSojournBudget).
	SojournBudget time.Duration
	// ProtectedBand is the never-shed priority band [0, ProtectedBand)
	// (0: PrioRange/8).
	ProtectedBand int64
	// SpillCap bounds the deferral spillway (0: the package default).
	SpillCap int
	// TenantWeights enables multi-tenant fair scheduling
	// (sched.Config.TenantWeights): entry t is tenant t's weight in the
	// weighted-fair capacity split, producers stamp every task with a
	// drawn tenant id, and the result gains per-tenant goodput/sojourn/
	// shed reports plus the fairness controller's window trace.
	// Requires Backpressure.
	TenantWeights []int64
	// TenantSkew is the hot-tenant arrival multiplier: tenant 0 draws
	// TenantSkew× the arrival share of each other tenant (default 1:
	// uniform arrivals). 10 with four tenants reproduces the paper-eval
	// "one tenant floods the queue" regime.
	TenantSkew float64
	// TenantFloorFrac is the guaranteed-floor capacity fraction
	// (sched.Config.TenantFloorFrac; 0 = the 5% default).
	TenantFloorFrac float64
	// TenantBudgets optionally sets per-tenant sojourn budgets (SLO
	// bands, sched.Config.TenantBudgets).
	TenantBudgets []time.Duration
	// Scenario layers a scripted traffic pattern over the arrival
	// process; see the Scenario constants.
	Scenario Scenario
	// Metrics, when non-nil, is handed to the scheduler as
	// sched.Config.Metrics: the controller goroutine publishes the serve
	// series into it at every window boundary. The generator itself never
	// touches the sink.
	Metrics obs.Sink
	// Recorder, when non-nil, is handed to the scheduler as
	// sched.Config.Recorder: the run's arrival envelopes and controller
	// decisions are captured to the recorder's destination for offline
	// replay (cmd/replay). The caller owns Finish-time error checking via
	// Recorder.Err; Run leaves the recorder sealed after Stop.
	Recorder *obs.Recorder
	// Seed drives all randomization.
	Seed uint64
}

// rankBuckets is the resolution of the live-set priority tracker
// (stats.RankTracker, the shared engine also behind the serve-mode
// rank-error series). A sampled pop scans this many counters.
const rankBuckets = stats.RankBuckets

// numBands is the resolution of the goodput-by-priority-band report of
// backpressure runs: band 0 is the protected band, bands 1–3 split the
// rest of the priority range into equal thirds (most to least urgent).
const numBands = 4

// GroupResult is one lane group's placement report.
type GroupResult struct {
	// Group is the home-group index in [0, LaneGroups).
	Group int `json:"group"`
	// Executed counts the tasks run by the group's worker places.
	Executed int64 `json:"executed"`
	// Contention is the group's cumulative failed lane try-locks.
	Contention int64 `json:"contention"`
}

// BandResult is one priority band's admission and goodput report.
type BandResult struct {
	// Lo (inclusive) and Hi (exclusive) bound the band's priorities.
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	// Protected marks the never-shed band.
	Protected bool `json:"protected,omitempty"`
	// Attempted counts submissions drawn in the band; Admitted the ones
	// accepted outright, Deferred the ones parked in the spillway (also
	// accepted), Shed the ones rejected.
	Attempted int64 `json:"attempted"`
	Admitted  int64 `json:"admitted"`
	Deferred  int64 `json:"deferred"`
	Shed      int64 `json:"shed"`
	// Executed counts the band's tasks that ran; GoodputPerSec is
	// Executed over the run's elapsed time.
	Executed      int64   `json:"executed"`
	GoodputPerSec float64 `json:"goodput_per_sec"`
	// SojournNs summarizes the band's submission-to-execution latency.
	SojournNs stats.Summary `json:"sojourn_ns"`
}

// TenantResult is one tenant's admission and goodput report.
type TenantResult struct {
	// Tenant is the tenant id; Weight its configured fair-share weight.
	Tenant int   `json:"tenant"`
	Weight int64 `json:"weight"`
	// Attempted counts submissions drawn for the tenant; Admitted the
	// ones accepted outright, Deferred the ones parked in the spillway
	// (also accepted), Shed the ones rejected.
	Attempted int64 `json:"attempted"`
	Admitted  int64 `json:"admitted"`
	Deferred  int64 `json:"deferred"`
	Shed      int64 `json:"shed"`
	// Executed counts the tenant's tasks that ran; GoodputPerSec is
	// Executed over the run's elapsed time, and FairSharePerSec the
	// tenant's weight-proportional share of the total executed
	// throughput — the yardstick the fairness acceptance criteria
	// compare goodput against.
	Executed        int64   `json:"executed"`
	GoodputPerSec   float64 `json:"goodput_per_sec"`
	FairSharePerSec float64 `json:"fair_share_per_sec"`
	// SojournNs summarizes the tenant's submission-to-execution latency.
	SojournNs stats.Summary `json:"sojourn_ns"`
}

// Result is the instrumented outcome of one generator run.
type Result struct {
	Strategy   string `json:"strategy"`
	Arrival    string `json:"arrival"`
	Dist       string `json:"dist"`
	Places     int    `json:"places"`
	Producers  int    `json:"producers"`
	K          int    `json:"k"`
	Batch      int    `json:"batch"`
	Stickiness int    `json:"stickiness"`
	Resolution int64  `json:"resolution,omitempty"`

	TargetRate float64 `json:"target_rate"` // tasks/s requested (0 for closed-loop)
	Submitted  int64   `json:"submitted"`
	Executed   int64   `json:"executed"`
	// ElapsedSec covers Start through Stop, including the final drain.
	ElapsedSec float64 `json:"elapsed_sec"`
	// ThroughputPerSec is Executed/ElapsedSec.
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	// AllocsPerTask and BytesPerTask are process-wide runtime.MemStats
	// Mallocs/TotalAlloc deltas over the serve window (Start through
	// Stop) divided by executed tasks. They measure the whole process —
	// producers, workers and controllers included — so they are an upper
	// bound on what the scheduler hot path itself allocates.
	AllocsPerTask float64 `json:"allocs_per_task"`
	BytesPerTask  float64 `json:"bytes_per_task"`

	// SojournNs summarizes submission-to-execution latency, nanoseconds.
	SojournNs stats.Summary `json:"sojourn_ns"`
	// RankErr is the full percentile summary of the sampled pop rank
	// error (the tail matters: relaxation knobs trade p99 rank error
	// for throughput).
	RankErr stats.Summary `json:"rank_err"`
	// RankErrMean/Max summarize the sampled pop rank error.
	RankErrMean    float64 `json:"rank_err_mean"`
	RankErrMax     int64   `json:"rank_err_max"`
	RankErrSamples int64   `json:"rank_err_samples"`

	// Adaptive-run extras: the controller's final knob values and its
	// full per-window (S, B) trace. Absent for fixed-knob runs.
	Adaptive        bool           `json:"adaptive,omitempty"`
	RankErrorBudget float64        `json:"rank_error_budget,omitempty"`
	FinalStickiness int            `json:"final_stickiness,omitempty"`
	FinalBatch      int            `json:"final_batch,omitempty"`
	AdaptTrace      []adapt.Window `json:"adapt_trace,omitempty"`

	// Grouped-placement extras: the configured partition, the active
	// group count at the end of the run (== LaneGroups for fixed runs),
	// the cross-group steal fraction of all pops, per-group stats, and —
	// for AdaptivePlacement runs — the controller's per-window trace.
	LaneGroups        int                `json:"lane_groups,omitempty"`
	AdaptivePlacement bool               `json:"adaptive_placement,omitempty"`
	FinalGroups       int                `json:"final_groups,omitempty"`
	StealRate         float64            `json:"steal_rate,omitempty"`
	Groups            []GroupResult      `json:"groups,omitempty"`
	PlacementTrace    []placement.Window `json:"placement_trace,omitempty"`

	// Backpressure-run extras: the admission totals (Attempted =
	// Submitted + Shed), the shed rate, goodput by priority band, the
	// final admission threshold and the controller's per-window trace.
	Backpressure    bool                  `json:"backpressure,omitempty"`
	SojournBudgetMs float64               `json:"sojourn_budget_ms,omitempty"`
	ProtectedBand   int64                 `json:"protected_band,omitempty"`
	Attempted       int64                 `json:"attempted,omitempty"`
	Shed            int64                 `json:"shed,omitempty"`
	Deferred        int64                 `json:"deferred,omitempty"`
	Readmitted      int64                 `json:"readmitted,omitempty"`
	ShedRate        float64               `json:"shed_rate,omitempty"`
	FinalThreshold  int64                 `json:"final_threshold,omitempty"`
	Bands           []BandResult          `json:"bands,omitempty"`
	BPTrace         []backpressure.Window `json:"bp_trace,omitempty"`

	// Tenant-fairness extras: the configured weights and skew, the
	// scenario name, per-tenant admission/goodput reports, the fairness
	// controller's per-window trace and how many of its windows held the
	// tenant gate engaged.
	TenantWeights    []int64        `json:"tenant_weights,omitempty"`
	TenantSkew       float64        `json:"tenant_skew,omitempty"`
	Scenario         string         `json:"scenario,omitempty"`
	Tenants          []TenantResult `json:"tenants,omitempty"`
	FairTrace        []fair.Window  `json:"fair_trace,omitempty"`
	FairGatedWindows int            `json:"fair_gated_windows,omitempty"`

	DS core.Stats `json:"ds"`
}

// withDefaults normalizes the zero values and validates.
func (c Config) withDefaults() (Config, error) {
	if c.Places == 0 {
		c.Places = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.K == 0:
		c.K = 512 // zero value means "the paper's default"
	case c.K < 0:
		c.K = 0 // negative is the explicit request for strict ordering
	}
	if c.Producers == 0 {
		c.Producers = 1
	}
	if c.Duration == 0 {
		c.Duration = time.Second
	}
	if c.Rate == 0 {
		c.Rate = 50000
	}
	if c.OnPeriod == 0 {
		c.OnPeriod = 10 * time.Millisecond
	}
	if c.OffPeriod == 0 {
		c.OffPeriod = 10 * time.Millisecond
	}
	if c.Window == 0 {
		c.Window = 64
	}
	if c.PrioRange == 0 {
		c.PrioRange = 1 << 20
	}
	if c.RankSample == 0 {
		c.RankSample = 1
	}
	if c.Batch == 0 {
		c.Batch = 1
	}
	if c.Places < 1 || c.Producers < 1 {
		return c, fmt.Errorf("load: Places/Producers must be ≥ 1")
	}
	if c.Rate < 0 || c.Duration < 0 || c.Window < 1 || c.WorkSpin < 0 || c.RankSample < 1 ||
		c.OnPeriod <= 0 || c.OffPeriod < 0 || c.Batch < 1 || c.Stickiness < 0 {
		return c, fmt.Errorf("load: negative parameter")
	}
	if c.Arrival == ClosedLoop && c.Batch > c.Window {
		return c, fmt.Errorf("load: Batch %d exceeds closed-loop Window %d (a producer would deadlock on its own tokens)", c.Batch, c.Window)
	}
	if c.PrioRange&(c.PrioRange-1) != 0 || c.PrioRange < rankBuckets {
		return c, fmt.Errorf("load: PrioRange %d must be a power of two ≥ %d", c.PrioRange, rankBuckets)
	}
	if c.RankErrorBudget < 0 || c.AdaptInterval < 0 {
		return c, fmt.Errorf("load: negative adaptive parameter")
	}
	if c.Resolution < 0 {
		return c, fmt.Errorf("load: negative Resolution")
	}
	if c.LaneGroups < 0 {
		return c, fmt.Errorf("load: negative LaneGroups")
	}
	if c.AdaptivePlacement && c.LaneGroups < 2 {
		return c, fmt.Errorf("load: AdaptivePlacement needs LaneGroups ≥ 2, got %d", c.LaneGroups)
	}
	if c.Backpressure {
		if c.SojournBudget == 0 {
			c.SojournBudget = backpressure.DefaultSojournBudget
		}
		if c.ProtectedBand == 0 {
			c.ProtectedBand = c.PrioRange / 8
		}
		if c.SojournBudget < 0 || c.SpillCap < 0 {
			return c, fmt.Errorf("load: negative backpressure parameter")
		}
		if c.ProtectedBand < 0 || c.ProtectedBand >= c.PrioRange {
			return c, fmt.Errorf("load: ProtectedBand %d outside the priority range [0, %d)", c.ProtectedBand, c.PrioRange)
		}
	}
	if len(c.TenantWeights) > 0 {
		if !c.Backpressure {
			return c, fmt.Errorf("load: TenantWeights requires Backpressure (the tenant gate defers over-quota tasks to its spillway)")
		}
		if c.TenantSkew == 0 {
			c.TenantSkew = 1
		}
		if c.TenantSkew < 0 {
			return c, fmt.Errorf("load: negative TenantSkew")
		}
		// The weight vector itself is validated by the scheduler's
		// fairness config (non-negative, at least one positive).
	} else if c.TenantSkew != 0 || c.TenantFloorFrac != 0 || len(c.TenantBudgets) > 0 {
		return c, fmt.Errorf("load: tenant knobs set without TenantWeights")
	}
	if c.Scenario == PriorityInflation && len(c.TenantWeights) < 2 {
		return c, fmt.Errorf("load: PriorityInflation needs TenantWeights with a hot and at least one cold tenant")
	}
	return c, nil
}

// tracker is the shared per-run instrumentation state.
type tracker struct {
	cfg   Config
	epoch time.Time
	// rank is the live-set census and rank-error engine: producers
	// register submissions, workers measure sampled pop rank error, and
	// the controllers read the decayed p99 through rank.Signal.
	rank *stats.RankTracker

	rankSum   atomic.Int64
	rankMax   atomic.Int64
	rankCount atomic.Int64
	submitted atomic.Int64
	spinSink  atomic.Uint64 // defeats elision of the synthetic work loop
	tokens    chan struct{} // closed-loop completion semaphore (nil otherwise)

	// groupExec tallies executed tasks per worker home group (grouped
	// runs only; nil otherwise), attributed via sched.HomeGroup — the
	// same mapping the scheduler partitions the worker places by.
	groupExec []atomic.Int64

	// Backpressure-run band accounting (zero-valued when off): per-band
	// admission outcomes and execution counts, written by the producer
	// goroutines (flush) and worker places (onExecute) respectively.
	bandAttempted [numBands]atomic.Int64
	bandAdmitted  [numBands]atomic.Int64
	bandDeferred  [numBands]atomic.Int64
	bandShed      [numBands]atomic.Int64
	bandExecuted  [numBands]atomic.Int64

	// Multi-tenant accounting (nil slices when off): tenCum is the
	// cumulative arrival-share distribution the producers draw tenant
	// ids from (tenant 0 weighted by TenantSkew), the counters mirror
	// the band ledgers per tenant.
	tenants      int
	tenCum       []float64
	tenAttempted []atomic.Int64
	tenAdmitted  []atomic.Int64
	tenDeferred  []atomic.Int64
	tenShed      []atomic.Int64
	tenExecuted  []atomic.Int64
}

// drawTenant samples a tenant id from the skewed arrival-share
// distribution.
func (tr *tracker) drawTenant(rng *xrand.Rand) int {
	x := rng.Float64() * tr.tenCum[tr.tenants-1]
	for t, c := range tr.tenCum {
		if x < c {
			return t
		}
	}
	return tr.tenants - 1
}

// diurnalFactor maps an arrival instant to the DiurnalRamp rate
// multiplier: 40% through the first quarter of the run, a linear ramp
// to 100% through the second, full rate through the third, and the
// mirror-image ramp down through the last.
func (tr *tracker) diurnalFactor(at int64) float64 {
	const trough = 0.4
	frac := float64(at) / float64(tr.cfg.Duration)
	switch {
	case frac < 0.25:
		return trough
	case frac < 0.5:
		return trough + (frac-0.25)/0.25*(1-trough)
	case frac < 0.75:
		return 1
	case frac < 1:
		return 1 - (frac-0.75)/0.25*(1-trough)
	default:
		return trough
	}
}

// band maps a priority to its report band: 0 for the protected band,
// 1–3 for equal thirds of the remaining range.
func (tr *tracker) band(prio int64) int {
	pb := tr.cfg.ProtectedBand
	if prio < pb {
		return 0
	}
	b := 1 + int((prio-pb)*(numBands-1)/(tr.cfg.PrioRange-pb))
	if b > numBands-1 {
		b = numBands - 1
	}
	return b
}

func newTracker(cfg Config) (*tracker, error) {
	rank, err := stats.NewRankTracker(cfg.PrioRange, cfg.RankSample)
	if err != nil {
		return nil, err
	}
	tr := &tracker{
		cfg:   cfg,
		epoch: time.Now(),
		rank:  rank,
	}
	if cfg.Arrival == ClosedLoop {
		tr.tokens = make(chan struct{}, cfg.Producers*cfg.Window)
		for i := 0; i < cap(tr.tokens); i++ {
			tr.tokens <- struct{}{}
		}
	}
	if cfg.LaneGroups > 1 {
		tr.groupExec = make([]atomic.Int64, cfg.LaneGroups)
	}
	if n := len(cfg.TenantWeights); n > 0 {
		tr.tenants = n
		tr.tenCum = make([]float64, n)
		acc := 0.0
		for t := range tr.tenCum {
			share := 1.0
			if t == 0 {
				share = cfg.TenantSkew
			}
			acc += share
			tr.tenCum[t] = acc
		}
		tr.tenAttempted = make([]atomic.Int64, n)
		tr.tenAdmitted = make([]atomic.Int64, n)
		tr.tenDeferred = make([]atomic.Int64, n)
		tr.tenShed = make([]atomic.Int64, n)
		tr.tenExecuted = make([]atomic.Int64, n)
	}
	return tr, nil
}

// now returns nanoseconds since the run's epoch.
func (tr *tracker) now() int64 { return int64(time.Since(tr.epoch)) }

// onExecute is the scheduler's Execute hook: latency, rank error,
// synthetic work, closed-loop completion. bands and tens are the
// executing place's per-band and per-tenant sojourn histograms (nil for
// non-backpressure and single-tenant runs respectively).
func (tr *tracker) onExecute(hist, rankHist *stats.Histogram, bands, tens []*stats.Histogram, t Task) {
	sojourn := float64(tr.now() - t.Enq)
	hist.Observe(sojourn)
	if bands != nil {
		bd := tr.band(t.Prio)
		bands[bd].Observe(sojourn)
		tr.bandExecuted[bd].Add(1)
	}
	if tens != nil {
		tens[t.Tenant].Observe(sojourn)
		tr.tenExecuted[t.Tenant].Add(1)
	}

	if better, ok := tr.rank.Executed(t.Prio); ok {
		rankHist.Observe(float64(better))
		tr.rankSum.Add(better)
		tr.rankCount.Add(1)
		for {
			cur := tr.rankMax.Load()
			if better <= cur || tr.rankMax.CompareAndSwap(cur, better) {
				break
			}
		}
	}
	if n := tr.cfg.WorkSpin; n > 0 {
		v := uint64(t.Prio)
		for i := 0; i < n; i++ {
			v = v*6364136223846793005 + 1442695040888963407
		}
		tr.spinSink.Store(v)
	}
	if tr.tokens != nil {
		tr.tokens <- struct{}{}
	}
}

// drawPrio samples one priority according to the configured distribution.
func (tr *tracker) drawPrio(rng *xrand.Rand, at int64) int64 {
	r := tr.cfg.PrioRange
	switch tr.cfg.Dist {
	case SkewedPrio:
		u := rng.Float64()
		return int64(u * u * float64(r-1))
	case RampPrio:
		frac := float64(at) / float64(tr.cfg.Duration)
		if frac > 1 {
			frac = 1
		}
		jitter := rng.Uint64n(uint64(r)/64 + 1)
		p := int64(frac*float64(r-1)) + int64(jitter)
		if p >= r {
			p = r - 1
		}
		return p
	default:
		return int64(rng.Uint64n(uint64(r)))
	}
}

// enqueue draws a priority at the current arrival instant and buffers
// the task, flushing when the batch is full. It returns the (possibly
// reset) buffer. out is the producer's admission-outcome scratch (nil
// for non-backpressure runs).
func (tr *tracker) enqueue(s *sched.Scheduler[Task], rng *xrand.Rand, buf []Task, out []sched.Outcome) ([]Task, error) {
	at := tr.now()
	if tr.cfg.Scenario == DiurnalRamp && rng.Float64() > tr.diurnalFactor(at) {
		// Thinned arrival: the diurnal profile suppresses this draw. A
		// closed-loop producer returns the outstanding token it consumed
		// for the non-arrival.
		if tr.tokens != nil {
			tr.tokens <- struct{}{}
		}
		return buf, nil
	}
	t := Task{Prio: tr.drawPrio(rng, at), Enq: at}
	if tr.tenants > 0 {
		t.Tenant = tr.drawTenant(rng)
		if tr.cfg.Scenario == PriorityInflation && t.Tenant == 0 && at >= int64(tr.cfg.Duration)/2 {
			// The hot tenant turns adversarial: every submission claims a
			// priority in the most urgent eighth of the range.
			t.Prio = int64(rng.Uint64n(uint64(tr.cfg.PrioRange / 8)))
		}
	}
	buf = append(buf, t)
	if len(buf) >= tr.cfg.Batch {
		return tr.flush(s, buf, out)
	}
	return buf, nil
}

// flush submits the buffered tasks as one batch, registering them in
// the live tracker only once they are actually in the scheduler. On
// rejection the registration is rolled back and the buffer kept, so the
// caller sees exactly which tasks never made it. Under backpressure the
// gate decides per task (out is the producer's reusable outcome
// scratch, len ≥ cap(buf)): shed tasks are unregistered and counted
// per band (and, closed-loop, their outstanding token released),
// accepted ones proceed like any other submission.
func (tr *tracker) flush(s *sched.Scheduler[Task], buf []Task, out []sched.Outcome) ([]Task, error) {
	if len(buf) == 0 {
		return buf, nil
	}
	for _, t := range buf {
		tr.rank.Submitted(t.Prio)
	}
	if !tr.cfg.Backpressure {
		if err := s.SubmitAll(buf); err != nil {
			for _, t := range buf {
				tr.rank.Retract(t.Prio)
			}
			return buf, err
		}
		tr.submitted.Add(int64(len(buf)))
		return buf[:0], nil
	}
	accepted, err := s.SubmitAllKOutcomes(tr.cfg.K, buf, out)
	if err != nil && err != sched.ErrShed {
		for _, t := range buf {
			tr.rank.Retract(t.Prio)
		}
		return buf, err
	}
	for i, t := range buf {
		bd := tr.band(t.Prio)
		tr.bandAttempted[bd].Add(1)
		if tr.tenants > 0 {
			tr.tenAttempted[t.Tenant].Add(1)
		}
		switch out[i] {
		case sched.Shed:
			tr.rank.Retract(t.Prio)
			tr.bandShed[bd].Add(1)
			if tr.tenants > 0 {
				tr.tenShed[t.Tenant].Add(1)
			}
			if tr.tokens != nil {
				// Closed loop: a shed task completes immediately from the
				// producer's point of view — release its budget token so
				// the loop can retry with fresh traffic.
				tr.tokens <- struct{}{}
			}
		case sched.Deferred:
			tr.bandDeferred[bd].Add(1)
			if tr.tenants > 0 {
				tr.tenDeferred[t.Tenant].Add(1)
			}
		default:
			tr.bandAdmitted[bd].Add(1)
			if tr.tenants > 0 {
				tr.tenAdmitted[t.Tenant].Add(1)
			}
		}
	}
	tr.submitted.Add(int64(accepted))
	return buf[:0], nil
}

// pace blocks until target (nanoseconds since epoch): sleeps for the
// bulk of the wait, then yields — time.Sleep alone overshoots badly at
// tens-of-microseconds inter-arrival times.
func (tr *tracker) pace(target int64) {
	for {
		now := tr.now()
		if now >= target {
			return
		}
		if d := target - now; d > int64(200*time.Microsecond) {
			time.Sleep(time.Duration(d) - 100*time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// produce runs one producer until the duration deadline, flushing any
// partially filled batch before returning.
func (tr *tracker) produce(s *sched.Scheduler[Task], rng *xrand.Rand) error {
	deadline := int64(tr.cfg.Duration)
	buf := make([]Task, 0, tr.cfg.Batch)
	var out []sched.Outcome
	if tr.cfg.Backpressure {
		// One admission-outcome scratch per producer, reused across
		// flushes so the measurement hot path does not allocate.
		out = make([]sched.Outcome, tr.cfg.Batch)
	}
	var err error
	switch tr.cfg.Arrival {
	case ClosedLoop:
		timeout := time.NewTimer(tr.cfg.Duration)
		defer timeout.Stop()
		for {
			select {
			case <-tr.tokens:
				// The token is not returned: a buffered task already
				// counts against the outstanding-task budget (hence the
				// Batch ≤ Window validation).
				if tr.now() >= deadline {
					_, err = tr.flush(s, buf, out)
					return err
				}
				if buf, err = tr.enqueue(s, rng, buf, out); err != nil {
					return err
				}
			case <-timeout.C:
				_, err = tr.flush(s, buf, out)
				return err
			}
		}
	case Bursty:
		// Arrivals are generated on a virtual "on-time" axis at the
		// per-producer rate and mapped onto the wall clock by inserting
		// an OffPeriod gap after every OnPeriod of on-time.
		rate := tr.cfg.Rate / float64(tr.cfg.Producers)
		on, off := int64(tr.cfg.OnPeriod), int64(tr.cfg.OffPeriod)
		var onTime float64
		for {
			onTime += expInterval(rng, rate)
			t := int64(onTime)
			wall := (t/on)*(on+off) + t%on
			if wall >= deadline {
				_, err = tr.flush(s, buf, out)
				return err
			}
			tr.pace(wall)
			if buf, err = tr.enqueue(s, rng, buf, out); err != nil {
				return err
			}
		}
	default: // Poisson
		rate := tr.cfg.Rate / float64(tr.cfg.Producers)
		var at float64
		for {
			at += expInterval(rng, rate)
			target := int64(at)
			if target >= deadline {
				_, err = tr.flush(s, buf, out)
				return err
			}
			tr.pace(target)
			if buf, err = tr.enqueue(s, rng, buf, out); err != nil {
				return err
			}
		}
	}
}

// expInterval draws an exponential inter-arrival time in nanoseconds for
// the given rate in events/second.
func expInterval(rng *xrand.Rand, rate float64) float64 {
	u := rng.Float64Open() // (0, 1]: log never sees 0
	return -math.Log(u) / rate * 1e9
}

// Run drives one full open-system experiment: it builds a serving
// scheduler for cfg.Strategy, floods it from cfg.Producers goroutines
// for cfg.Duration, drains, stops, and returns the instrumented result.
func Run(cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	tr, err := newTracker(cfg)
	if err != nil {
		return Result{}, err
	}
	hists := make([]*stats.Histogram, cfg.Places)
	rankHists := make([]*stats.Histogram, cfg.Places)
	var bandHists, tenHists [][]*stats.Histogram
	if cfg.Backpressure {
		bandHists = make([][]*stats.Histogram, cfg.Places)
	}
	if tr.tenants > 0 {
		tenHists = make([][]*stats.Histogram, cfg.Places)
	}
	for i := range hists {
		hists[i] = stats.NewHistogram()
		rankHists[i] = stats.NewHistogram()
		if bandHists != nil {
			bandHists[i] = make([]*stats.Histogram, numBands)
			for b := range bandHists[i] {
				bandHists[i][b] = stats.NewHistogram()
			}
		}
		if tenHists != nil {
			tenHists[i] = make([]*stats.Histogram, tr.tenants)
			for t := range tenHists[i] {
				tenHists[i][t] = stats.NewHistogram()
			}
		}
	}

	scfg := sched.Config[Task]{
		Places:   cfg.Places,
		Strategy: cfg.Strategy,
		K:        cfg.K,
		Less:     func(a, b Task) bool { return a.Prio < b.Prio },
		Execute: func(ctx *sched.Ctx[Task], t Task) {
			pl := ctx.Place()
			var bands, tens []*stats.Histogram
			if bandHists != nil {
				bands = bandHists[pl]
			}
			if tenHists != nil {
				tens = tenHists[pl]
			}
			if tr.groupExec != nil {
				tr.groupExec[sched.HomeGroup(pl, cfg.Places, cfg.LaneGroups)].Add(1)
			}
			tr.onExecute(hists[pl], rankHists[pl], bands, tens, t)
		},
		Injectors:         cfg.Producers,
		Batch:             cfg.Batch,
		Stickiness:        cfg.Stickiness,
		LaneGroups:        cfg.LaneGroups,
		AdaptivePlacement: cfg.AdaptivePlacement,
		AdaptInterval:     cfg.AdaptInterval,
		Seed:              cfg.Seed,
		// The numeric priority projection is supplied unconditionally —
		// not just for backpressure runs — so the relaxed lanes advertise
		// their minima through the allocation-free numeric slots on every
		// configuration the generator measures.
		Priority:   func(t Task) int64 { return t.Prio },
		MaxPrio:    cfg.PrioRange - 1,
		Resolution: cfg.Resolution,
		Metrics:    cfg.Metrics,
		Recorder:   cfg.Recorder,
		// The capture envelope's payload hash folds the task's enqueue
		// timestamp with its priority so replay diffs can detect reordered
		// or substituted payloads, not just count mismatches.
		Hash: func(t Task) uint64 { return uint64(t.Enq)<<20 ^ uint64(t.Prio) },
	}
	if cfg.Adaptive {
		scfg.Adaptive = true
	}
	if cfg.Backpressure {
		scfg.Backpressure = true
		scfg.SojournBudget = cfg.SojournBudget
		scfg.ProtectedBand = cfg.ProtectedBand
		scfg.SpillCap = cfg.SpillCap
	}
	if tr.tenants > 0 {
		scfg.TenantWeights = cfg.TenantWeights
		scfg.Tenant = func(t Task) int { return t.Tenant }
		scfg.TenantFloorFrac = cfg.TenantFloorFrac
		scfg.TenantBudgets = cfg.TenantBudgets
	}
	if cfg.Adaptive || (cfg.Backpressure && cfg.RankErrorBudget > 0) {
		scfg.RankErrorBudget = cfg.RankErrorBudget
		// Both runtime controllers consume the same decaying rank-error
		// estimator through sched's shared once-per-window signal read:
		// the tracker's Signal closure reports the decayed p99, then ages
		// the window, allocating nothing (the controller goroutine is its
		// only caller).
		scfg.RankSignal = tr.rank.Signal()
	}
	s, err := sched.New(scfg)
	if err != nil {
		return Result{}, err
	}
	if err := s.Start(); err != nil {
		return Result{}, err
	}
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)

	var wg sync.WaitGroup
	errs := make([]error, cfg.Producers)
	seeds := xrand.New(cfg.Seed ^ 0x10ad)
	for p := 0; p < cfg.Producers; p++ {
		wg.Add(1)
		go func(p int, rng *xrand.Rand) {
			defer wg.Done()
			errs[p] = tr.produce(s, rng)
		}(p, seeds.Split())
	}
	wg.Wait()
	if err := s.Drain(); err != nil {
		return Result{}, err
	}
	// Read the live partition before Stop restores the configured one;
	// for AdaptivePlacement runs this is where the controller landed.
	finalGroups, grouped := s.PlacementState()
	st, err := s.Stop()
	if err != nil {
		return Result{}, err
	}
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	for _, e := range errs {
		if e != nil {
			return Result{}, e
		}
	}

	merged := stats.NewHistogram()
	mergedRank := stats.NewHistogram()
	for i := range hists {
		merged.Merge(hists[i])
		mergedRank.Merge(rankHists[i])
	}
	res := Result{
		Strategy:       cfg.Strategy.String(),
		Arrival:        cfg.Arrival.String(),
		Dist:           cfg.Dist.String(),
		Places:         cfg.Places,
		Producers:      cfg.Producers,
		K:              cfg.K,
		Batch:          cfg.Batch,
		Stickiness:     cfg.Stickiness,
		Resolution:     cfg.Resolution,
		Submitted:      tr.submitted.Load(),
		Executed:       st.Executed,
		ElapsedSec:     st.Elapsed.Seconds(),
		SojournNs:      merged.Summarize(),
		RankErr:        mergedRank.Summarize(),
		RankErrMax:     tr.rankMax.Load(),
		RankErrSamples: tr.rankCount.Load(),
		DS:             st.DS,
	}
	if st.Executed > 0 {
		res.AllocsPerTask = float64(mem1.Mallocs-mem0.Mallocs) / float64(st.Executed)
		res.BytesPerTask = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(st.Executed)
	}
	if cfg.Adaptive {
		res.Adaptive = true
		res.RankErrorBudget = cfg.RankErrorBudget
		if st, b, ok := s.AdaptiveState(); ok {
			res.FinalStickiness, res.FinalBatch = st, b
		}
		res.AdaptTrace = s.AdaptiveTrace()
	}
	if grouped {
		// Only the relaxed strategies actually group their lanes; the
		// others ignore LaneGroups, so the grouped extras key off the
		// scheduler's report rather than the config.
		res.LaneGroups = cfg.LaneGroups
		res.FinalGroups = finalGroups
		if res.DS.Pops > 0 {
			res.StealRate = float64(res.DS.CrossGroupPops) / float64(res.DS.Pops)
		}
		gc := s.GroupContention()
		for grp := 0; grp < cfg.LaneGroups; grp++ {
			gr := GroupResult{Group: grp, Executed: tr.groupExec[grp].Load()}
			if grp < len(gc) {
				gr.Contention = gc[grp]
			}
			res.Groups = append(res.Groups, gr)
		}
		if cfg.AdaptivePlacement {
			res.AdaptivePlacement = true
			res.PlacementTrace = s.PlacementTrace()
		}
	}
	if cfg.Backpressure {
		res.Backpressure = true
		res.RankErrorBudget = cfg.RankErrorBudget
		res.SojournBudgetMs = float64(cfg.SojournBudget) / 1e6
		res.ProtectedBand = cfg.ProtectedBand
		res.Shed = st.DS.Shed
		res.Deferred = st.DS.Deferred
		res.Readmitted = st.DS.Readmitted
		res.Attempted = res.Submitted + res.Shed
		if res.Attempted > 0 {
			res.ShedRate = float64(res.Shed) / float64(res.Attempted)
		}
		if bst, ok := s.BackpressureState(); ok {
			res.FinalThreshold = bst.Threshold
		}
		res.BPTrace = s.BackpressureTrace()
		elapsed := res.ElapsedSec
		for b := 0; b < numBands; b++ {
			lo, hi := int64(0), cfg.ProtectedBand
			if b > 0 {
				// The exact inverse of tracker.band's floor division:
				// band b starts at the smallest priority that floors
				// into it.
				span := cfg.PrioRange - cfg.ProtectedBand
				lo = cfg.ProtectedBand + (int64(b-1)*span+numBands-2)/(numBands-1)
				hi = cfg.ProtectedBand + (int64(b)*span+numBands-2)/(numBands-1)
			}
			merged := stats.NewHistogram()
			for pl := range bandHists {
				merged.Merge(bandHists[pl][b])
			}
			br := BandResult{
				Lo:        lo,
				Hi:        hi,
				Protected: b == 0,
				Attempted: tr.bandAttempted[b].Load(),
				Admitted:  tr.bandAdmitted[b].Load(),
				Deferred:  tr.bandDeferred[b].Load(),
				Shed:      tr.bandShed[b].Load(),
				Executed:  tr.bandExecuted[b].Load(),
				SojournNs: merged.Summarize(),
			}
			if elapsed > 0 {
				br.GoodputPerSec = float64(br.Executed) / elapsed
			}
			res.Bands = append(res.Bands, br)
		}
	}
	if tr.tenants > 0 {
		res.TenantWeights = cfg.TenantWeights
		res.TenantSkew = cfg.TenantSkew
		var wsum int64
		for _, w := range cfg.TenantWeights {
			wsum += w
		}
		elapsed := res.ElapsedSec
		for t := 0; t < tr.tenants; t++ {
			merged := stats.NewHistogram()
			for pl := range tenHists {
				merged.Merge(tenHists[pl][t])
			}
			tn := TenantResult{
				Tenant:    t,
				Weight:    cfg.TenantWeights[t],
				Attempted: tr.tenAttempted[t].Load(),
				Admitted:  tr.tenAdmitted[t].Load(),
				Deferred:  tr.tenDeferred[t].Load(),
				Shed:      tr.tenShed[t].Load(),
				Executed:  tr.tenExecuted[t].Load(),
				SojournNs: merged.Summarize(),
			}
			if elapsed > 0 {
				tn.GoodputPerSec = float64(tn.Executed) / elapsed
			}
			if wsum > 0 && elapsed > 0 {
				tn.FairSharePerSec = float64(res.Executed) / elapsed *
					float64(cfg.TenantWeights[t]) / float64(wsum)
			}
			res.Tenants = append(res.Tenants, tn)
		}
		res.FairTrace = s.FairTrace()
		for _, w := range res.FairTrace {
			if w.State.Gated {
				res.FairGatedWindows++
			}
		}
	}
	if cfg.Scenario != SteadyLoad {
		res.Scenario = cfg.Scenario.String()
	}
	if cfg.Arrival != ClosedLoop {
		res.TargetRate = cfg.Rate
	}
	if res.ElapsedSec > 0 {
		res.ThroughputPerSec = float64(res.Executed) / res.ElapsedSec
	}
	if n := tr.rankCount.Load(); n > 0 {
		res.RankErrMean = float64(tr.rankSum.Load()) / float64(n)
	}
	return res, nil
}
