// Package load is a streaming workload generator for the open-system
// serving mode: producer goroutines submit prioritized tasks into a
// serving sched.Scheduler following a configurable arrival process, and
// every executed task is instrumented for the two quantities the relaxed
// priority scheduling literature trades against each other (Postnikova
// et al., "Multi-Queues Can Be State-of-the-Art Priority Schedulers"):
//
//   - sojourn latency: wall time from arrival to execution, reported as
//     a streaming p50/p95/p99 histogram. An open-loop arrival is stamped
//     with the instant it was due, not the instant the producer got
//     round to submitting it, so time a late producer spent pacing,
//     drawing or blocked in Submit counts against the system instead of
//     vanishing (coordinated omission);
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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backpressure"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// nameOf and parseName are the only readers of the three name tables
// below: each String prints from its table and each Parse reads it back,
// so a name cannot be printed that is not accepted.
func nameOf(names []string, kind string, i int) string {
	if i < 0 || i >= len(names) {
		return fmt.Sprintf("%s(%d)", kind, i)
	}
	return names[i]
}

func parseName(names []string, kind, name string) (int, error) {
	for i, n := range names {
		if n == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q (one of %s)", kind, name, strings.Join(names, ", "))
}

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

var arrivalNames = [...]string{Poisson: "poisson", Bursty: "bursty", ClosedLoop: "closed-loop"}

// String returns the arrival process name used in reports and accepted
// by ParseArrival.
func (a Arrival) String() string { return nameOf(arrivalNames[:], "arrival", int(a)) }

// ParseArrival returns the arrival process whose String is name. The
// error for any other name lists the accepted ones.
func ParseArrival(name string) (Arrival, error) {
	i, err := parseName(arrivalNames[:], "arrival process", name)
	return Arrival(i), err
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

var distNames = [...]string{UniformPrio: "uniform", SkewedPrio: "skewed", RampPrio: "ramp"}

// String returns the distribution name used in reports and accepted by
// ParseDist.
func (d PrioDist) String() string { return nameOf(distNames[:], "dist", int(d)) }

// ParseDist returns the priority distribution whose String is name. The
// error for any other name lists the accepted ones.
func ParseDist(name string) (PrioDist, error) {
	i, err := parseName(distNames[:], "priority distribution", name)
	return PrioDist(i), err
}

// Scenario selects a scripted traffic pattern layered over the arrival
// process (multi-tenant runs; see sched.Config.TenantWeights).
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

var scenarioNames = [...]string{SteadyLoad: "steady", DiurnalRamp: "diurnal", PriorityInflation: "inflation"}

// String returns the scenario name used in reports and accepted by
// ParseScenario.
func (sc Scenario) String() string { return nameOf(scenarioNames[:], "scenario", int(sc)) }

// ParseScenario returns the scenario whose String is name. The error
// for any other name lists the accepted ones.
func ParseScenario(name string) (Scenario, error) {
	i, err := parseName(scenarioNames[:], "scenario", name)
	return Scenario(i), err
}

// ArrivalNames, DistNames and ScenarioNames list the accepted names in
// declaration order, for usage texts.
func ArrivalNames() []string  { return arrivalNames[:] }
func DistNames() []string     { return distNames[:] }
func ScenarioNames() []string { return scenarioNames[:] }

// PrioRange bounds task priorities to [0, PrioRange).
const PrioRange = 1 << 20

// Task is the unit of work the generator submits: a priority, the
// arrival timestamp (nanoseconds since the run's epoch — the due
// instant for open-loop arrivals, the clock for closed-loop ones), and —
// for multi-tenant runs — the submitting tenant.
type Task struct {
	Prio   int64
	Enq    int64
	Tenant int
}

// Config parameterizes one generator run: the scheduler to build, and
// the shape of the traffic offered to it.
type Config struct {
	// Sched configures the scheduler under test and is handed to
	// sched.New as written — its zero values, defaults and validation
	// are sched's. Run fills in only what the generator alone can
	// supply: Less, Priority and MaxPrio (the Task priority order over
	// [0, PrioRange)), Execute (the instrumentation hook), Tenant, Hash
	// (enqueue timestamp folded with priority, so replay diffs detect
	// reordered or substituted payloads), Injectors (= Producers), and
	// — because it depends on the generator's priority range —
	// ProtectedBand = PrioRange/8 when Backpressure leaves it 0. Seed
	// also drives the producers.
	//
	// Batch sets both ends of the pipeline: producers buffer Batch
	// drawn tasks and submit them through one Scheduler.SubmitAll
	// injector episode. Tasks keep their arrival-instant timestamps
	// while buffered, so batching delay shows up in the sojourn
	// percentiles rather than being hidden. For ClosedLoop, Batch must
	// not exceed Window (a producer buffering more tasks than its
	// outstanding budget would deadlock on its own tokens).
	Sched sched.Config[Task]
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
	// WorkSpin adds synthetic per-task work: WorkSpin iterations of a
	// small arithmetic loop (default 0: measure pure scheduling).
	WorkSpin int
	// RankSample measures rank error on every RankSample-th executed
	// task (default 1: every task).
	RankSample int
	// TenantSkew is the hot-tenant arrival multiplier of multi-tenant
	// runs (Sched.TenantWeights set): producers stamp every task with a
	// drawn tenant id, and tenant 0 draws TenantSkew× the arrival share
	// of each other tenant (default 1: uniform arrivals). 10 with four
	// tenants reproduces the paper-eval "one tenant floods the queue"
	// regime.
	TenantSkew float64
	// Scenario layers a scripted traffic pattern over the arrival
	// process; see the Scenario constants.
	Scenario Scenario
}

// numBands is the resolution of the goodput-by-priority-band report of
// backpressure runs: band 0 is the protected band, bands 1–3 split the
// rest of the priority range into equal thirds (most to least urgent).
const numBands = 4

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

	// Backpressure-run extras: the sojourn budget, the admission totals
	// (Attempted = Submitted + Shed), the shed rate, goodput by priority
	// band, the final admission threshold and the controller's
	// per-window trace.
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

// withDefaults normalizes the zero values of the workload shape and
// validates it. Everything under Sched is sched.New's to check.
func (c Config) withDefaults() (Config, error) {
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
	if c.RankSample == 0 {
		c.RankSample = 1
	}
	if c.Producers < 1 {
		return c, fmt.Errorf("load: Producers must be ≥ 1")
	}
	if c.Rate < 0 || c.Duration < 0 || c.Window < 1 || c.WorkSpin < 0 || c.RankSample < 1 ||
		c.OnPeriod <= 0 || c.OffPeriod < 0 {
		return c, fmt.Errorf("load: negative parameter")
	}
	if c.Arrival == ClosedLoop && c.Sched.Batch > c.Window {
		return c, fmt.Errorf("load: Batch %d exceeds closed-loop Window %d (a producer would deadlock on its own tokens)", c.Sched.Batch, c.Window)
	}
	if c.Sched.Backpressure && c.Sched.ProtectedBand == 0 {
		c.Sched.ProtectedBand = PrioRange / 8
	}
	if len(c.Sched.TenantWeights) > 0 {
		if c.TenantSkew == 0 {
			c.TenantSkew = 1
		}
		if c.TenantSkew < 0 {
			return c, fmt.Errorf("load: negative TenantSkew")
		}
	} else if c.TenantSkew != 0 {
		return c, fmt.Errorf("load: TenantSkew set without Sched.TenantWeights")
	}
	if c.Scenario == PriorityInflation && len(c.Sched.TenantWeights) < 2 {
		return c, fmt.Errorf("load: PriorityInflation needs TenantWeights with a hot and at least one cold tenant")
	}
	return c, nil
}

// placeHists is one worker place's private instrumentation, merged
// across places when the run is over.
type placeHists struct {
	sojourn, rank *stats.Histogram
	// bands and tens are the per-band and per-tenant sojourn histograms
	// (nil for non-backpressure and single-tenant runs respectively).
	bands, tens []*stats.Histogram
}

func newHists(n int) []*stats.Histogram {
	hs := make([]*stats.Histogram, n)
	for i := range hs {
		hs[i] = stats.NewHistogram()
	}
	return hs
}

// tracker is the shared per-run instrumentation state.
type tracker struct {
	cfg   Config
	epoch time.Time
	// batch is the producers' submit batch: Sched.Batch, at least 1.
	batch int
	// rank is the live-set census and rank-error engine: producers
	// register submissions and workers measure sampled pop rank error.
	rank  *stats.RankTracker
	hists []placeHists

	rankSum   atomic.Int64
	rankMax   atomic.Int64
	rankCount atomic.Int64
	submitted atomic.Int64
	spinSink  atomic.Uint64 // defeats elision of the synthetic work loop
	tokens    chan struct{} // closed-loop completion semaphore (nil otherwise)

	// Backpressure-run band accounting (zero-valued when off): per-band
	// admission outcomes and execution counts, written by the producer
	// goroutines (flush) and worker places (onExecute) respectively. The
	// per-tenant counterpart is the scheduler's own ledger
	// (Scheduler.TenantCounters).
	bandAttempted [numBands]atomic.Int64
	bandAdmitted  [numBands]atomic.Int64
	bandDeferred  [numBands]atomic.Int64
	bandShed      [numBands]atomic.Int64
	bandExecuted  [numBands]atomic.Int64

	// tenCum is the cumulative arrival-share distribution the producers
	// draw tenant ids from (tenant 0 weighted by TenantSkew); nil for
	// single-tenant runs.
	tenCum []float64
}

// drawTenant samples a tenant id from the skewed arrival-share
// distribution.
func (tr *tracker) drawTenant(rng *xrand.Rand) int {
	last := len(tr.tenCum) - 1
	x := rng.Float64() * tr.tenCum[last]
	for t, c := range tr.tenCum {
		if x < c {
			return t
		}
	}
	return last
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
	pb := tr.cfg.Sched.ProtectedBand
	if prio < pb {
		return 0
	}
	b := 1 + int((prio-pb)*(numBands-1)/(PrioRange-pb))
	if b > numBands-1 {
		b = numBands - 1
	}
	return b
}

func newTracker(cfg Config) (*tracker, error) {
	rank, err := stats.NewRankTracker(PrioRange, cfg.RankSample)
	if err != nil {
		return nil, err
	}
	tr := &tracker{
		cfg:   cfg,
		epoch: time.Now(),
		batch: max(cfg.Sched.Batch, 1),
		rank:  rank,
		// A negative Places must get as far as sched.New, which rejects it.
		hists: make([]placeHists, max(cfg.Sched.Places, 0)),
	}
	if cfg.Arrival == ClosedLoop {
		tr.tokens = make(chan struct{}, cfg.Producers*cfg.Window)
		for i := 0; i < cap(tr.tokens); i++ {
			tr.tokens <- struct{}{}
		}
	}
	if n := len(cfg.Sched.TenantWeights); n > 0 {
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
	}
	for pl := range tr.hists {
		h := &tr.hists[pl]
		h.sojourn, h.rank = stats.NewHistogram(), stats.NewHistogram()
		if cfg.Sched.Backpressure {
			h.bands = newHists(numBands)
		}
		if tr.tenCum != nil {
			h.tens = newHists(len(tr.tenCum))
		}
	}
	return tr, nil
}

// now returns nanoseconds since the run's epoch.
func (tr *tracker) now() int64 { return int64(time.Since(tr.epoch)) }

// onExecute is the scheduler's Execute hook, run by worker place pl:
// latency, rank error, synthetic work, closed-loop completion.
func (tr *tracker) onExecute(pl int, t Task) {
	h := &tr.hists[pl]
	sojourn := float64(tr.now() - t.Enq)
	h.sojourn.Observe(sojourn)
	if h.bands != nil {
		bd := tr.band(t.Prio)
		h.bands[bd].Observe(sojourn)
		tr.bandExecuted[bd].Add(1)
	}
	if h.tens != nil {
		h.tens[t.Tenant].Observe(sojourn)
	}

	if better, ok := tr.rank.Executed(t.Prio); ok {
		h.rank.Observe(float64(better))
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
	const r = PrioRange
	switch tr.cfg.Dist {
	case SkewedPrio:
		u := rng.Float64()
		return int64(u * u * float64(r-1))
	case RampPrio:
		frac := float64(at) / float64(tr.cfg.Duration)
		if frac > 1 {
			frac = 1
		}
		jitter := rng.Uint64n(r/64 + 1)
		return min(int64(frac*float64(r-1))+int64(jitter), r-1)
	default:
		return int64(rng.Uint64n(r))
	}
}

// enqueue draws a task arriving at instant at — the due instant of an
// open-loop arrival, however late the producer is, or the clock for a
// closed-loop one — and buffers it, flushing when the batch is full. It
// returns the (possibly reset) buffer. out is the producer's
// admission-outcome scratch (nil for non-backpressure runs).
func (tr *tracker) enqueue(s *sched.Scheduler[Task], rng *xrand.Rand, buf []Task, out []sched.Outcome, at int64) ([]Task, error) {
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
	if tr.tenCum != nil {
		t.Tenant = tr.drawTenant(rng)
		if tr.cfg.Scenario == PriorityInflation && t.Tenant == 0 && at >= int64(tr.cfg.Duration)/2 {
			// The hot tenant turns adversarial: every submission claims a
			// priority in the most urgent eighth of the range.
			t.Prio = int64(rng.Uint64n(PrioRange / 8))
		}
	}
	buf = append(buf, t)
	if len(buf) >= tr.batch {
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
	if !tr.cfg.Sched.Backpressure {
		if err := s.SubmitAll(buf); err != nil {
			for _, t := range buf {
				tr.rank.Retract(t.Prio)
			}
			return buf, err
		}
		tr.submitted.Add(int64(len(buf)))
		return buf[:0], nil
	}
	accepted, err := s.SubmitAllKOutcomes(tr.cfg.Sched.K, buf, out)
	if err != nil && err != sched.ErrShed {
		for _, t := range buf {
			tr.rank.Retract(t.Prio)
		}
		return buf, err
	}
	for i, t := range buf {
		bd := tr.band(t.Prio)
		tr.bandAttempted[bd].Add(1)
		switch out[i] {
		case sched.Shed:
			tr.rank.Retract(t.Prio)
			tr.bandShed[bd].Add(1)
			if tr.tokens != nil {
				// Closed loop: a shed task completes immediately from the
				// producer's point of view — release its budget token so
				// the loop can retry with fresh traffic.
				tr.tokens <- struct{}{}
			}
		case sched.Deferred:
			tr.bandDeferred[bd].Add(1)
		default:
			tr.bandAdmitted[bd].Add(1)
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

// arrivals generates one producer's open-loop due instants: Poisson
// arrivals at rate on a virtual "on-time" axis, mapped onto the run's
// clock by inserting an off gap after every on of on-time. Plain
// Poisson is off = 0, where the mapping is the identity.
type arrivals struct {
	rng     *xrand.Rand
	rate    float64 // events/second
	on, off int64
	onTime  float64
}

// next returns the next due instant, nanoseconds since the epoch.
func (a *arrivals) next() int64 {
	u := a.rng.Float64Open() // (0, 1]: log never sees 0
	a.onTime += -math.Log(u) / a.rate * 1e9
	t := int64(a.onTime)
	return (t/a.on)*(a.on+a.off) + t%a.on
}

// produce runs one producer until the duration deadline, flushing any
// partially filled batch before returning.
func (tr *tracker) produce(s *sched.Scheduler[Task], rng *xrand.Rand) error {
	deadline := int64(tr.cfg.Duration)
	buf := make([]Task, 0, tr.batch)
	var out []sched.Outcome
	if tr.cfg.Sched.Backpressure {
		// One admission-outcome scratch per producer, reused across
		// flushes so the measurement hot path does not allocate.
		out = make([]sched.Outcome, tr.batch)
	}
	var err error
	if tr.cfg.Arrival == ClosedLoop {
		timeout := time.NewTimer(tr.cfg.Duration)
		defer timeout.Stop()
		for {
			select {
			case <-tr.tokens:
				// The token is not returned: a buffered task already
				// counts against the outstanding-task budget (hence the
				// Batch ≤ Window validation).
				at := tr.now()
				if at >= deadline {
					_, err = tr.flush(s, buf, out)
					return err
				}
				if buf, err = tr.enqueue(s, rng, buf, out, at); err != nil {
					return err
				}
			case <-timeout.C:
				_, err = tr.flush(s, buf, out)
				return err
			}
		}
	}
	// Open loop. The schedule never looks at the clock: a producer that
	// falls behind submits its backlog of due arrivals back to back, each
	// stamped with the instant it should have arrived.
	arr := arrivals{rng: rng, rate: tr.cfg.Rate / float64(tr.cfg.Producers), on: int64(tr.cfg.OnPeriod)}
	if tr.cfg.Arrival == Bursty {
		arr.off = int64(tr.cfg.OffPeriod)
	}
	for {
		due := arr.next()
		if due >= deadline {
			_, err = tr.flush(s, buf, out)
			return err
		}
		tr.pace(due)
		if buf, err = tr.enqueue(s, rng, buf, out, due); err != nil {
			return err
		}
	}
}

// schedConfig returns cfg.Sched with the generator's own fields filled
// in (see Config.Sched).
func (tr *tracker) schedConfig() sched.Config[Task] {
	sc := tr.cfg.Sched
	sc.Less = func(a, b Task) bool { return a.Prio < b.Prio }
	sc.Execute = func(ctx *sched.Ctx[Task], t Task) { tr.onExecute(ctx.Place(), t) }
	sc.Injectors = tr.cfg.Producers
	// The numeric priority projection is supplied unconditionally — not
	// just for backpressure runs — so the relaxed lanes advertise their
	// minima through the allocation-free numeric slots on every
	// configuration the generator measures.
	sc.Priority = func(t Task) int64 { return t.Prio }
	sc.MaxPrio = PrioRange - 1
	sc.Hash = func(t Task) uint64 { return uint64(t.Enq)<<20 ^ uint64(t.Prio) }
	if tr.tenCum != nil {
		sc.Tenant = func(t Task) int { return t.Tenant }
	}
	return sc
}

// Run drives one full open-system experiment: it builds a serving
// scheduler from cfg.Sched, floods it from cfg.Producers goroutines for
// cfg.Duration, drains, stops, and returns the instrumented result.
func Run(cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	tr, err := newTracker(cfg)
	if err != nil {
		return Result{}, err
	}
	s, err := sched.New(tr.schedConfig())
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
	seeds := xrand.New(cfg.Sched.Seed ^ 0x10ad)
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

	sc := cfg.Sched
	res := Result{
		Strategy:       sc.Strategy.String(),
		Arrival:        cfg.Arrival.String(),
		Dist:           cfg.Dist.String(),
		Places:         sc.Places,
		Producers:      cfg.Producers,
		K:              sc.K,
		Batch:          tr.batch,
		Stickiness:     sc.Stickiness,
		Submitted:      tr.submitted.Load(),
		Executed:       st.Executed,
		ElapsedSec:     st.Elapsed.Seconds(),
		SojournNs:      tr.summarize(func(h *placeHists) *stats.Histogram { return h.sojourn }),
		RankErr:        tr.summarize(func(h *placeHists) *stats.Histogram { return h.rank }),
		RankErrMax:     tr.rankMax.Load(),
		RankErrSamples: tr.rankCount.Load(),
		DS:             st.DS,
	}
	if st.Executed > 0 {
		res.AllocsPerTask = float64(mem1.Mallocs-mem0.Mallocs) / float64(st.Executed)
		res.BytesPerTask = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(st.Executed)
	}
	elapsed := res.ElapsedSec
	if sc.Backpressure {
		res.Backpressure = true
		budget := sc.SojournBudget
		if budget == 0 {
			budget = backpressure.DefaultSojournBudget
		}
		res.SojournBudgetMs = float64(budget) / 1e6
		res.ProtectedBand = sc.ProtectedBand
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
		for b := 0; b < numBands; b++ {
			lo, hi := int64(0), sc.ProtectedBand
			if b > 0 {
				// The exact inverse of tracker.band's floor division:
				// band b starts at the smallest priority that floors
				// into it.
				span := PrioRange - sc.ProtectedBand
				lo = sc.ProtectedBand + (int64(b-1)*span+numBands-2)/(numBands-1)
				hi = sc.ProtectedBand + (int64(b)*span+numBands-2)/(numBands-1)
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
				SojournNs: tr.summarize(func(h *placeHists) *stats.Histogram { return h.bands[b] }),
			}
			if elapsed > 0 {
				br.GoodputPerSec = float64(br.Executed) / elapsed
			}
			res.Bands = append(res.Bands, br)
		}
	}
	if tr.tenCum != nil {
		res.TenantWeights = sc.TenantWeights
		res.TenantSkew = cfg.TenantSkew
		var wsum int64
		for _, w := range sc.TenantWeights {
			wsum += w
		}
		for t, tc := range s.TenantCounters() {
			tn := TenantResult{
				Tenant:    t,
				Weight:    sc.TenantWeights[t],
				Attempted: tc.Arrived,
				Admitted:  tc.Admitted,
				Deferred:  tc.Deferred,
				Shed:      tc.Shed,
				Executed:  tc.Executed,
				SojournNs: tr.summarize(func(h *placeHists) *stats.Histogram { return h.tens[t] }),
			}
			if elapsed > 0 {
				tn.GoodputPerSec = float64(tn.Executed) / elapsed
			}
			if wsum > 0 && elapsed > 0 {
				tn.FairSharePerSec = float64(res.Executed) / elapsed *
					float64(sc.TenantWeights[t]) / float64(wsum)
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
	if elapsed > 0 {
		res.ThroughputPerSec = float64(res.Executed) / elapsed
	}
	if n := tr.rankCount.Load(); n > 0 {
		res.RankErrMean = float64(tr.rankSum.Load()) / float64(n)
	}
	return res, nil
}

// summarize merges one histogram of every place and summarizes it.
func (tr *tracker) summarize(pick func(*placeHists) *stats.Histogram) stats.Summary {
	merged := stats.NewHistogram()
	for pl := range tr.hists {
		merged.Merge(pick(&tr.hists[pl]))
	}
	return merged.Summarize()
}
