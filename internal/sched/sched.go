// Package sched implements the task scheduling system of Section 2: a
// help-first, async-finish scheduler in which each place (one thread of
// execution plus its local data structures) repeatedly pops a task from a
// priority scheduling data structure and executes it to completion.
//
// Newly spawned tasks are stored for later execution by any place while
// the spawning task proceeds with its continuation (help-first scheduling,
// Guo et al.); work-first is not viable for priority scheduling since it
// fixes a depth-first execution order (§2).
//
// Tasks can be synchronized with finish regions: Ctx.Finish runs a body
// and then blocks until every task transitively spawned inside the region
// has executed — "blocks" meaning the place keeps popping and executing
// other tasks while it waits (work-helping), so no place ever idles inside
// a finish.
//
// Termination: every place counts the tasks it creates and retires in a
// ledger of its own (ledger.go); pops are allowed to fail spuriously
// (§2.1), so a failed pop is always a retry with bounded backoff, and
// workers exit only when a scan of the ledgers finds nothing outstanding.
package sched

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/backpressure"
	"repro/internal/core"
	"repro/internal/core/centralized"
	"repro/internal/core/globalpq"
	"repro/internal/core/hybrid"
	"repro/internal/core/wsprio"
	"repro/internal/ctl"
	"repro/internal/fair"
	"repro/internal/obs"
	"repro/internal/relaxed"
	"repro/internal/xrand"
)

// Upper bounds on the tuning knobs. Values beyond these are pathological
// rather than aggressive — they are rejected by New with a clear error
// instead of being accepted and then silently truncated or thrashed.
const (
	// MaxBatch caps Config.Batch (and the adaptive controller's batch
	// ceiling) at relaxed.MaxPopBatch: one pop episode drains a lane
	// under its lock, and the worker buffer (one per place) is sized to
	// the ceiling, so an unbounded batch would hold lane locks and waste
	// memory for nothing.
	MaxBatch = relaxed.MaxPopBatch
	// MaxStickiness caps Config.Stickiness (and the adaptive ceiling): a
	// place camping on one lane for 2^16 consecutive operations is
	// indistinguishable from a permanently partitioned queue, which
	// silently forfeits the relaxed structures' ordering story.
	MaxStickiness = 1 << 16
)

// Strategy selects the priority scheduling data structure backing the
// scheduler (§3).
type Strategy int

const (
	// WorkStealing: per-place priority queues with steal-half; local
	// prioritization only (§3.1).
	WorkStealing Strategy = iota
	// Centralized: the centralized k-priority data structure; global
	// priority order relaxed by at most k ignored newest tasks (§3.2).
	Centralized
	// Hybrid: the hybrid k-priority data structure; at most k newest tasks
	// per place ignored, ρ = P·k (§3.3).
	Hybrid
	// Relaxed: the structurally ρ-relaxed priority queue of §5.3 (future
	// work in the paper, implemented here as an extension; see
	// internal/relaxed).
	Relaxed
	// WorkStealingStealOne: ablation — steal a single task instead of
	// half. Not in the paper; quantifies the steal-half choice.
	WorkStealingStealOne
	// HybridNoSpy: ablation — hybrid structure with spying disabled
	// (idle places rely on published lists only).
	HybridNoSpy
	// GlobalHeap: baseline — a single shared strict priority queue
	// (ρ = 0), the design the paper's introduction argues against
	// (Lenharth et al.: contention on the top element).
	GlobalHeap
	// RelaxedSampleTwo: the structurally relaxed queue with classic
	// MultiQueue two-choice sampling (probabilistic rank bound, maximum
	// throughput). Combined with Config.Stickiness and Config.Batch this
	// is the sticky, batched MultiQueue of Postnikova et al.
	RelaxedSampleTwo
)

// strategyNames is the one table that names the strategies, indexed by
// Strategy: String prints from it, ParseStrategy reads it back.
var strategyNames = [...]string{
	WorkStealing:         "work-stealing",
	Centralized:          "centralized",
	Hybrid:               "hybrid",
	Relaxed:              "relaxed",
	WorkStealingStealOne: "ws-steal-one",
	HybridNoSpy:          "hybrid-no-spy",
	GlobalHeap:           "global-heap",
	RelaxedSampleTwo:     "relaxed-two",
}

// String returns the strategy name used in reports and accepted by
// ParseStrategy.
func (s Strategy) String() string {
	if s < 0 || int(s) >= len(strategyNames) {
		return fmt.Sprintf("strategy(%d)", int(s))
	}
	return strategyNames[s]
}

// Strategies returns every strategy, in declaration order.
func Strategies() []Strategy {
	out := make([]Strategy, len(strategyNames))
	for i := range out {
		out[i] = Strategy(i)
	}
	return out
}

// ParseStrategy returns the strategy whose String is name. The error
// for any other name lists the accepted ones.
func ParseStrategy(name string) (Strategy, error) {
	for i, n := range strategyNames {
		if n == name {
			return Strategy(i), nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q (one of %s)", name, strings.Join(strategyNames[:], ", "))
}

// ParseStrategies parses a comma-separated list of strategy names, as
// the commands' -strategy/-strategies flags take it.
func ParseStrategies(list string) ([]Strategy, error) {
	var out []Strategy
	for _, name := range strings.Split(list, ",") {
		st, err := ParseStrategy(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// Config configures a Scheduler.
type Config[T any] struct {
	// Places is the number of worker threads of execution (the paper's P).
	// Each place counts the tasks it spawns, executes and eliminates in
	// counters of its own, so spawning and executing write no memory
	// another place writes; Pending, Drain and termination read all P of
	// them (ledger.go).
	Places int
	// Strategy selects the backing data structure.
	Strategy Strategy
	// K is the default relaxation parameter used by Ctx.Spawn; Ctx.SpawnK
	// overrides it per task. The paper's experiments use k = 512.
	K int
	// KMax bounds per-task k for the centralized structure (default 512).
	KMax int
	// Less is the priority function: Less(a, b) means a runs before b.
	Less func(a, b T) bool
	// Execute runs one task. It may spawn further tasks through ctx.
	Execute func(ctx *Ctx[T], v T)
	// Stale optionally marks dead tasks for lazy elimination (§5.1): a
	// task it condemns when a pop reaches it is retired without running —
	// counted in RunStats.Eliminated, settled in the task accounting (and
	// in its tenant's backlog) exactly like an executed one. It is called
	// from the popping place's goroutine and must be safe to call from
	// all of them at once.
	Stale func(T) bool
	// Injectors is the number of external submission lanes used by the
	// open-system serve mode (Start/Submit/Drain/Stop). Submissions from
	// producer goroutines outside the worker places are pushed through
	// dedicated injector places — the data structure contract requires a
	// place to be operated by one goroutine at a time, so external pushes
	// cannot share the workers' place ids. More injectors means less
	// contention between concurrent producers. 0 (the default) allocates
	// none and leaves the data structure's place count untouched —
	// identical to a closed-world scheduler — but Start then fails; set
	// Injectors ≥ 1 (≈ the expected producer count) to serve.
	Injectors int
	// Batch is the maximum number of tasks a worker removes from the
	// data structure per pop episode (core.DS.PopKInto). 1 (and 0, the
	// default) pops one task per episode; larger values amortize the
	// structure's synchronization across the batch on structures with a
	// native PopKInto, at the price of coarser priority adherence within
	// a batch.
	Batch int
	// Stickiness is the per-place lane stickiness S of the relaxed
	// strategies (Relaxed, RelaxedSampleTwo): a place reuses its last
	// lane for up to S consecutive operations before re-sampling. 0
	// selects the unsticky default (S = 1); other strategies ignore it.
	Stickiness int
	// Adaptive enables the runtime feedback controller (internal/adapt)
	// in serve mode: every AdaptInterval it samples the structure's
	// counters (pop retries, lane contention, batch pops, pending) plus
	// the RankSignal estimate and retunes the effective stickiness S and
	// worker batch B within AdaptiveLimits, seeded from Stickiness and
	// Batch. S adjustments apply to the relaxed strategies (the others
	// have no lanes); B adjustments apply to every strategy's worker pop
	// loop. Closed-world Run is not adapted — it keeps the seeds.
	Adaptive bool
	// AdaptiveLimits bounds the controller; zero fields select the
	// adapt package defaults.
	AdaptiveLimits adapt.Limits
	// RankErrorBudget is the controller's p99 rank-error budget: it
	// backs off whenever RankSignal reports a windowed p99 above it.
	// 0 disables the budget (the controller grows until contention).
	RankErrorBudget float64
	// RankSignal optionally supplies the windowed rank-error p99
	// estimate the budget is checked against (e.g. a
	// stats.DecayingHist quantile, as wired by internal/load). It is
	// called from the controller goroutine once per window; a negative
	// return means "no signal this window" and skips the budget check.
	// Nil behaves like a permanently absent signal.
	RankSignal func() float64
	// AdaptInterval is the one control window of a serve session: every
	// runtime controller, the metrics publication and the recorder tick
	// on it. 0 selects adapt.DefaultInterval; anything else must be at
	// least 1ms, whichever of them is configured.
	AdaptInterval time.Duration
	// Backpressure enables priority-aware admission control in serve
	// mode (internal/backpressure): every AdaptInterval the controller
	// compares the structure's backlog against what the observed service
	// rate clears within SojournBudget (plus the RankSignal estimate
	// against RankErrorBudget) and maintains an admission threshold over
	// the numeric priority domain. Submissions above the threshold are
	// deferred to a bounded spillway — re-submitted on under-loaded
	// windows — or, when it is full, rejected with ErrShed. Closed-world
	// Run is not gated: admission control exists to protect an open
	// system from its callers.
	Backpressure bool
	// Priority maps a task to its numeric priority (smaller is more
	// urgent). It is the one numeric projection of the order: the relaxed
	// strategies key their lanes on it and advertise each lane's minimum
	// as that key, the k-priority strategies (Centralized, Hybrid) key
	// their place-local queues on it — in both the key is computed once
	// per queue entry and compared as an integer, and Less is not called
	// — and the admission threshold is compared against it at Submit
	// time. Optional except with Backpressure; it must agree with Less
	// (Priority(a) < Priority(b) implies Less(a, b)) or the queues and
	// the gate follow a different order than Less describes. Tasks with
	// equal Priority run in unspecified order, also where Less would tell
	// them apart.
	Priority func(T) int64
	// MaxPrio is the inclusive upper bound of the Priority domain
	// (required ≥ 1 with Backpressure; nothing else reads it).
	MaxPrio int64
	// SojournBudget is the target sojourn time backpressure polices
	// (0 selects backpressure.DefaultSojournBudget).
	SojournBudget time.Duration
	// ProtectedBand is the never-shed guarantee: tasks with
	// Priority < ProtectedBand are admitted unconditionally — the
	// threshold structurally cannot tighten below the band.
	ProtectedBand int64
	// SpillCap bounds the deferral spillway (0 selects
	// backpressure.DefaultSpillCap).
	SpillCap int
	// TenantWeights enables multi-tenant fair scheduling in serve mode
	// (internal/fair): entry t is tenant t's weight in the weighted-fair
	// capacity split. While the fairness controller's gate is engaged
	// (some tenant's backlog past its sojourn-budget depth), each
	// tenant's admissions per control window are capped at its
	// water-filled fair-share quota — excess is deferred to the spillway
	// or shed — and each tenant's first Floors[t] tasks per window are
	// admitted unconditionally, bypassing even the priority threshold,
	// so no tenant starves behind a hotter or higher-priority one.
	// Requires Backpressure (the tenant gate shares its spillway) and a
	// Tenant projection. Empty disables tenancy entirely; a zero-weight
	// entry declares a best-effort tenant with no floor.
	TenantWeights []int64
	// Tenant maps a task to its tenant index in
	// [0, len(TenantWeights)). Out-of-range returns are clamped.
	// Required with TenantWeights; called on the submit and execute hot
	// paths, so keep it a field read.
	Tenant func(T) int
	// TenantFloorFrac is the capacity fraction reserved for the
	// per-tenant starvation floors (0 selects fair.DefaultFloorFrac).
	TenantFloorFrac float64
	// TenantBudgets optionally sets per-tenant sojourn budgets (SLO
	// bands): entry t overrides SojournBudget for tenant t's overload
	// signal, so a latency-sensitive tenant can gate the system earlier
	// than a batch tenant. Missing or zero entries inherit
	// SojournBudget.
	TenantBudgets []time.Duration
	// Metrics optionally plugs an export sink (internal/obs) into serve
	// mode: once per AdaptInterval window, the controller goroutine
	// publishes the scheduler's core series — throughput, admission
	// outcomes, structure counters, controller states — to the sink.
	// Publication happens strictly at window boundaries, so the
	// per-task submit/pop/execute path is untouched (0 allocs/task with
	// metrics on; see docs/METRICS.md for the full series list). Nil
	// disables export.
	Metrics obs.Sink
	// Recorder optionally captures this serve session to a versioned
	// JSONL trace (internal/obs): every controller decision window
	// exactly, plus best-effort arrival envelopes (time, priority, k,
	// payload hash) up to the recorder's ring capacity. The capture
	// replays deterministically offline (cmd/replay, obs.ReadCapture).
	// The scheduler writes the capture header at Start and finishes the
	// capture at Stop; a Recorder serves one session, and a Start that
	// finds it already used fails.
	Recorder *obs.Recorder
	// Hash optionally fingerprints task payloads for the Recorder's
	// arrival envelopes — a tenant-opaque identity that lets an
	// incident's traffic mix be analyzed offline without capturing the
	// payloads themselves. Nil records no hash.
	Hash func(T) uint64
	// Seed drives all internal randomization.
	Seed uint64
}

// envelope wraps a task with the finish region it belongs to: the
// innermost Ctx.Finish it was (transitively) spawned inside, nil outside
// any.
type envelope[T any] struct {
	v   T
	fin *finishRegion
}

// deferredTask is a spillway entry: the envelope plus the relaxation
// parameter its Submit requested, so readmission pushes it with the
// caller's k rather than the scheduler default.
type deferredTask[T any] struct {
	env envelope[T]
	k   int
}

// finishRegion counts the outstanding tasks transitively spawned inside
// one Ctx.Finish scope.
type finishRegion struct {
	pending atomic.Int64
}

// Scheduler executes task-parallel computations over a priority
// scheduling data structure.
type Scheduler[T any] struct {
	cfg Config[T]
	ds  core.DS[envelope[T]]
	// rlx is ds again as the concrete relaxed structure (nil for the
	// other strategies): the live-retuning and sampling surface the
	// adaptive controller drives — stickiness, lane contention.
	rlx    *relaxed.DS[envelope[T]]
	active atomic.Bool
	// Task accounting (see ledger.go): one ledger per worker place; the
	// count of tasks created outside the worker places is injected, in
	// the submit group at the end.
	led []placeLedger

	// Serve-mode state (see serve.go). serveMu guards the Start/Stop
	// lifecycle; accepting gates the Submit hot path without taking it.
	// stopping lets the workers exit at the next quiescent instant: set
	// for the whole of a closed-world Run, and by Stop.
	serveMu   sync.Mutex
	started   bool
	serving   atomic.Bool
	accepting atomic.Bool
	stopping  atomic.Bool
	workers   sync.WaitGroup
	injectors []*injector
	serveT0   time.Time
	// serveBase/serveBaseDS are the totals at Start; Stop reports the
	// session as the difference.
	serveBase   taskTotals
	serveBaseDS core.Stats
	// envArena pools the envelope staging buffers of the SubmitAllK
	// paths; defArena pools the spillway drain scratch of readmitSpill
	// (nil without Backpressure). See blockArena.
	envArena *blockArena[envelope[T]]
	defArena *blockArena[deferredTask[T]]

	// Adaptive-controller state (see serve.go). maxBatch is the worker
	// pop buffer capacity (the batch ceiling); effBatch is the batch in
	// force, re-read every pop episode so the controller's moves
	// propagate live. Each of the three window controllers is held the
	// same way: its validated config, and a ctl.Session (nil when the
	// controller is off) carrying the per-serve-session loop, the state
	// in force and the decision trace for concurrent observers.
	// ctrlStop/ctrlDone bracket the one goroutine that steps them all.
	maxBatch  int
	effBatch  atomic.Int32
	adaptCfg  adapt.Config
	adaptSeed adapt.State
	adaptCtl  *ctl.Session[adapt.Cumulative, adapt.Sample, adapt.State]
	ctrlStop  chan struct{}
	ctrlDone  chan struct{}

	// Backpressure state (see serve.go). bpGate is the admission
	// threshold in force — one atomic load on every Submit; spill is
	// the bounded deferral buffer between the gate and ErrShed. The
	// admission counters are in the submit group at the end.
	bpCfg  backpressure.Config
	bpCtl  *ctl.Session[backpressure.Cumulative, backpressure.Sample, backpressure.State]
	bpGate atomic.Int64
	spill  *backpressure.Spillway[deferredTask[T]]

	// Tenant-fairness state (see fair.go). tenants is the tenant count
	// (0: tenancy off); tenGated plus the per-tenant ledger's
	// quota/floor/win are the admission gate's view of the controller's
	// last decision; fairCum is the controller goroutine's snapshot
	// scratch (the controller keeps its own copy).
	fairCfg  fair.Config
	fairCtl  *ctl.Session[fair.Cumulative, fair.Sample, fair.State]
	tenants  int
	fairCum  fair.Cumulative
	tenGated atomic.Bool
	ten      []tenantLedger
	// quotaHold parks spillway tasks a controller-tick readmission
	// drained but could not admit within their tenant's window quota:
	// re-offering them to the ring races with producers refilling it,
	// and losing that race admitted them over quota — under a sustained
	// hot-tenant flood the leak let the hot tenant run several times
	// its fair share. Held tasks go first on the next readmission tick
	// (they are the oldest accepted work) and the spillway is only
	// drained again once the hold is empty, bounding it to one chunk.
	holdMu    sync.Mutex
	quotaHold []deferredTask[T]

	// Observability state (see obs.go): the registered metric
	// instruments and the previous window's counter snapshot (nil
	// without Config.Metrics).
	metrics *serveMetrics

	// Submit group: the counters producers read-modify-write on every
	// Submit — injected (tasks created outside the worker places, see
	// ledger.go), nextInj (the injector round-robin) and the
	// scheduler-level admission counters merged into Stats(). Everything
	// above is written at Start, Stop or a controller tick and otherwise
	// only read, much of it by the workers on every pop episode and every
	// failed pop (cfg.Execute, ds, effBatch, stopping, tenants): with a
	// counter on one of those lines each Submit took the line from an
	// idle, polling worker, and got it taken back. So the group keeps
	// 128 bytes — the pair of lines the spatial prefetcher pulls together
	// — clear on both sides, wherever the allocator puts the struct.
	// TestSubmitCountersKeepTheirDistance holds the layout until
	// ROADMAP item 6 (ii) can.
	_             [128]byte
	injected      atomic.Int64
	nextInj       atomic.Uint64
	admittedN     atomic.Int64
	deferredN     atomic.Int64
	shed          atomic.Int64
	readmitted    atomic.Int64
	quotaShed     atomic.Int64
	quotaDeferred atomic.Int64
	_             [128]byte
}

// New constructs a scheduler. The data structure instance is created here
// and reused across sequential Run calls.
func New[T any](cfg Config[T]) (*Scheduler[T], error) {
	if cfg.Places < 1 {
		return nil, fmt.Errorf("sched: Places = %d, need at least 1", cfg.Places)
	}
	if cfg.Less == nil {
		return nil, fmt.Errorf("sched: Less function is required")
	}
	if cfg.Execute == nil {
		return nil, fmt.Errorf("sched: Execute function is required")
	}
	if cfg.K < 0 {
		return nil, fmt.Errorf("sched: K = %d, must be non-negative", cfg.K)
	}
	if cfg.Injectors < 0 {
		return nil, fmt.Errorf("sched: Injectors = %d, must be non-negative", cfg.Injectors)
	}
	if cfg.Batch < 0 {
		return nil, fmt.Errorf("sched: Batch = %d, must be non-negative", cfg.Batch)
	}
	if cfg.Batch == 0 {
		cfg.Batch = 1
	}
	if cfg.Batch > MaxBatch {
		return nil, fmt.Errorf("sched: Batch = %d exceeds the per-episode pop capacity %d (relaxed.MaxPopBatch); larger batches would be silently truncated every episode", cfg.Batch, MaxBatch)
	}
	if cfg.Stickiness < 0 {
		return nil, fmt.Errorf("sched: Stickiness = %d, must be non-negative", cfg.Stickiness)
	}
	if cfg.Stickiness > MaxStickiness {
		return nil, fmt.Errorf("sched: Stickiness = %d exceeds %d; a place would never meaningfully re-sample its lane", cfg.Stickiness, MaxStickiness)
	}
	if cfg.RankErrorBudget < 0 {
		return nil, fmt.Errorf("sched: RankErrorBudget = %v, must be non-negative", cfg.RankErrorBudget)
	}
	// One control interval, resolved here for every configuration: the
	// controller configs below receive it and ctlLoop ticks on it.
	if cfg.AdaptInterval == 0 {
		cfg.AdaptInterval = adapt.DefaultInterval
	}
	if cfg.AdaptInterval < time.Millisecond {
		return nil, fmt.Errorf("sched: AdaptInterval = %v, must be at least 1ms", cfg.AdaptInterval)
	}
	s := &Scheduler[T]{cfg: cfg, led: make([]placeLedger, cfg.Places)}
	s.maxBatch = cfg.Batch
	if cfg.Adaptive {
		acfg := adapt.Config{
			Limits:          cfg.AdaptiveLimits,
			RankErrorBudget: cfg.RankErrorBudget,
			Interval:        cfg.AdaptInterval,
		}
		if err := acfg.Validate(); err != nil {
			return nil, err
		}
		if acfg.Limits.MaxBatch > MaxBatch {
			return nil, fmt.Errorf("sched: AdaptiveLimits.MaxBatch = %d exceeds the per-episode pop capacity %d", acfg.Limits.MaxBatch, MaxBatch)
		}
		if acfg.Limits.MaxStickiness > MaxStickiness {
			return nil, fmt.Errorf("sched: AdaptiveLimits.MaxStickiness = %d exceeds %d", acfg.Limits.MaxStickiness, MaxStickiness)
		}
		s.adaptCfg = acfg
		seed := cfg.Stickiness
		if seed < 1 {
			seed = 1
		}
		s.adaptSeed = acfg.Limits.Clamp(adapt.State{Stickiness: seed, Batch: cfg.Batch})
		s.adaptCtl = ctl.NewSession[adapt.Cumulative, adapt.Sample](s.adaptSeed, maxTraceWindows)
		if acfg.Limits.MaxBatch > s.maxBatch {
			s.maxBatch = acfg.Limits.MaxBatch
		}
	}
	if cfg.Backpressure {
		if cfg.Priority == nil {
			return nil, fmt.Errorf("sched: Backpressure requires a Priority function (the admission threshold is compared against it at Submit time)")
		}
		bcfg := backpressure.Config{
			MaxPrio:         cfg.MaxPrio,
			ProtectedBand:   cfg.ProtectedBand,
			SojournBudget:   cfg.SojournBudget,
			RankErrorBudget: cfg.RankErrorBudget,
			Interval:        cfg.AdaptInterval,
			SpillCap:        cfg.SpillCap,
		}
		if err := bcfg.Validate(); err != nil {
			return nil, err
		}
		s.bpCfg = bcfg
		s.spill = backpressure.NewSpillway[deferredTask[T]](bcfg.SpillCap)
		s.bpGate.Store(bcfg.MaxPrio)
		s.bpCtl = ctl.NewSession[backpressure.Cumulative, backpressure.Sample](bcfg.Open(), maxTraceWindows)
	}
	if len(cfg.TenantWeights) > 0 {
		if cfg.Tenant == nil {
			return nil, fmt.Errorf("sched: TenantWeights requires a Tenant projection (tasks must be attributable to a tenant)")
		}
		if !cfg.Backpressure {
			return nil, fmt.Errorf("sched: TenantWeights requires Backpressure (the tenant gate defers over-quota tasks to its spillway)")
		}
		fcfg := fair.Config{
			Weights:       cfg.TenantWeights,
			FloorFrac:     cfg.TenantFloorFrac,
			SojournBudget: cfg.SojournBudget,
			Budgets:       cfg.TenantBudgets,
			Interval:      cfg.AdaptInterval,
		}
		if err := fcfg.Validate(); err != nil {
			return nil, err
		}
		s.fairCfg = fcfg
		s.tenants = len(cfg.TenantWeights)
		s.fairCtl = ctl.NewSession[fair.Cumulative, fair.Sample](fcfg.Open(), maxTraceWindows)
		n := s.tenants
		s.ten = make([]tenantLedger, n)
		s.fairCum = fair.Cumulative{
			Arrived: make([]int64, n), Admitted: make([]int64, n),
			Deferred: make([]int64, n), Shed: make([]int64, n),
			Readmitted: make([]int64, n), Executed: make([]int64, n),
			Pending: make([]int64, n),
		}
	}
	s.effBatch.Store(int32(cfg.Batch))
	s.envArena = newBlockArena[envelope[T]]()
	if cfg.Backpressure {
		s.defArena = newBlockArena[deferredTask[T]]()
	}
	for i := 0; i < cfg.Injectors; i++ {
		// Injector lanes occupy the place ids past the worker places.
		s.injectors = append(s.injectors, &injector{place: cfg.Places + i})
	}

	opts := core.Options[envelope[T]]{
		Places: cfg.Places + cfg.Injectors,
		Less:   func(a, b envelope[T]) bool { return cfg.Less(a.v, b.v) },
		KMax:   cfg.KMax,
		Seed:   cfg.Seed,
	}
	if cfg.Stale != nil {
		opts.Stale = func(e envelope[T]) bool { return cfg.Stale(e.v) }
		opts.OnEliminate = s.onEliminate
	}

	// Whenever the caller supplies a numeric Priority, hand the
	// structures its projection. The relaxed lanes then advertise their
	// minima as plain atomic integers instead of boxed task copies — one
	// heap allocation per lane lock episode gone, the load-bearing piece
	// of the allocation-free serve path — and the k-priority structures
	// key their place-local queues on it instead of calling Less per heap
	// comparison. Priority is documented to agree with Less, which is
	// exactly the agreement the projection needs.
	var num relaxed.NumericConfig[envelope[T]]
	if cfg.Priority != nil {
		pr := cfg.Priority
		opts.Prio = func(e envelope[T]) int64 { return pr(e.v) }
		num.Prio = opts.Prio
	}

	var (
		ds  core.DS[envelope[T]]
		err error
	)
	switch cfg.Strategy {
	case WorkStealing:
		ds, err = wsprio.New(opts)
	case WorkStealingStealOne:
		ds, err = wsprio.NewStealOne(opts)
	case Centralized:
		ds, err = centralized.New(opts)
	case Hybrid:
		ds, err = hybrid.New(opts)
	case HybridNoSpy:
		ds, err = hybrid.NewNoSpy(opts)
	case Relaxed, RelaxedSampleTwo:
		rcfg := relaxed.Config{Mode: relaxed.SampleAll, Stickiness: cfg.Stickiness}
		if cfg.Strategy == RelaxedSampleTwo {
			rcfg.Mode = relaxed.SampleTwo
		}
		s.rlx, err = relaxed.NewWithNumeric(opts, rcfg, num)
		ds = s.rlx
	case GlobalHeap:
		ds, err = globalpq.New(opts)
	default:
		err = fmt.Errorf("sched: unknown strategy %d", int(cfg.Strategy))
	}
	if err != nil {
		return nil, err
	}
	s.ds = ds
	if cfg.Metrics != nil {
		s.metrics = s.newServeMetrics(cfg.Metrics)
	}
	return s, nil
}

// RunStats summarizes one Run.
type RunStats struct {
	// Elapsed is the wall-clock duration of the run (for a serve
	// session: Start to Stop).
	Elapsed    time.Duration
	Executed   int64 // tasks run by Execute
	Eliminated int64 // tasks retired as stale without running
	Spawned    int64 // tasks pushed (roots + spawns)
	// DS carries the backing data structure's operation counters,
	// including the admission-gate counters (Shed/Deferred/Readmitted)
	// the scheduler folds in for serve sessions.
	DS core.Stats
}

// Run executes the computation seeded by the given root tasks and blocks
// until every transitively spawned task has finished. Run may be called
// repeatedly, but not concurrently.
func (s *Scheduler[T]) Run(roots ...T) (RunStats, error) {
	if len(roots) == 0 {
		return RunStats{}, fmt.Errorf("sched: Run needs at least one root task")
	}
	if !s.active.CompareAndSwap(false, true) {
		return RunStats{}, fmt.Errorf("sched: Run called concurrently")
	}
	defer s.active.Store(false)

	dsBefore := s.Stats()
	before := s.scan(nil)
	s.injected.Add(int64(len(roots)))
	s.stopping.Store(true)
	for i, r := range roots {
		s.ds.Push(i%s.cfg.Places, s.cfg.K, envelope[T]{v: r})
	}

	start := time.Now()
	var wg sync.WaitGroup
	seeds := xrand.New(s.cfg.Seed ^ 0xabcdef)
	for pl := 0; pl < s.cfg.Places; pl++ {
		wg.Add(1)
		go func(pl int, rng *xrand.Rand) {
			defer wg.Done()
			s.workLoop(s.newCtx(pl, rng), nil)
		}(pl, seeds.Split())
	}
	wg.Wait()
	elapsed := time.Since(start)
	return s.runStats(elapsed, before, dsBefore), nil
}

// runStats is the RunStats of the run or session that started at the
// given totals.
func (s *Scheduler[T]) runStats(elapsed time.Duration, before taskTotals, dsBefore core.Stats) RunStats {
	now := s.scan(nil)
	return RunStats{
		Elapsed:    elapsed,
		Executed:   now.executed - before.executed,
		Eliminated: now.eliminated - before.eliminated,
		Spawned:    now.injected + now.spawned - before.injected - before.spawned,
		DS:         s.Stats().Sub(dsBefore),
	}
}

// onEliminate is the structures' OnEliminate hook: a lazily eliminated
// task counts as retired without running.
//
//schedlint:hotpath
func (s *Scheduler[T]) onEliminate(place int, e envelope[T]) {
	if e.fin != nil {
		e.fin.pending.Add(-1)
	}
	if s.tenants > 0 {
		s.ten[s.tenantOf(e.v)].pending.v.Add(-1)
	}
	s.led[place].eliminate()
}

// workLoop pops and executes tasks, applying bounded backoff on spurious
// pop failures. It is used both by the top-level workers (region nil:
// until stopping is set and the scheduler is quiescent, asked only after
// an empty pop — the scan reads every place's ledger line) and by places
// waiting inside a finish region (work-helping: until the region has no
// outstanding task, asked before every pop).
//
// Each pop episode fills up to the currently effective batch through
// core.DS.PopKInto — with a batch of 1 (the default) that is exactly a
// Pop on every structure. The effective batch is re-read from effBatch
// every episode, so the adaptive controller's moves propagate to the
// very next pop without any worker coordination. Every task of an
// obtained batch is executed before the loop re-checks for completion,
// because a popped task is no longer in the structure and skipping it
// would lose it.
//
// The pop buffer (sized to the batch ceiling, so a later controller
// move never needs a reallocation) is cached on the place's Ctx so
// successive entries (one per finish region) reuse it — but an entry
// takes ownership for its lifetime, because Execute may call Finish and
// re-enter this loop on the same Ctx while the outer batch still holds
// unexecuted envelopes: a nested entry finding no cached buffer
// allocates its own (once, then cached in turn) instead of clobbering
// the outer one.
//
//schedlint:hotpath
func (s *Scheduler[T]) workLoop(ctx *Ctx[T], region *finishRegion) {
	buf := ctx.popBuf
	if len(buf) < s.maxBatch {
		//schedlint:ignore once per nested loop entry, then cached on the Ctx; the per-task steady state re-uses it
		buf = make([]envelope[T], s.maxBatch)
	}
	ctx.popBuf = nil
	//schedlint:ignore one closure per loop entry (not per task) restores the cached buffer on exit
	defer func() { ctx.popBuf = buf }()
	fails := 0
	for {
		if region != nil && region.pending.Load() == 0 {
			return
		}
		b := int(s.effBatch.Load())
		if b < 1 {
			b = 1
		}
		if b > len(buf) {
			b = len(buf)
		}
		n := s.ds.PopKInto(ctx.place, buf[:b])
		if n == 0 {
			if region == nil && s.stopping.Load() && s.quiescent() {
				return
			}
			fails++
			backoff(fails)
			continue
		}
		fails = 0
		for i := 0; i < n; i++ {
			s.execute(ctx, buf[i])
		}
	}
}

// execute runs one popped envelope and settles the task accounting.
//
//schedlint:hotpath
func (s *Scheduler[T]) execute(ctx *Ctx[T], e envelope[T]) {
	prev := ctx.fin
	ctx.fin = e.fin
	s.cfg.Execute(ctx, e.v)
	ctx.fin = prev
	if e.fin != nil {
		e.fin.pending.Add(-1)
	}
	ctx.led.retire()
	if s.tenants > 0 {
		led := &s.ten[s.tenantOf(e.v)]
		led.executed.v.Add(1)
		led.pending.v.Add(-1)
	}
}

// backoff implements the idle policy: spin briefly, then yield, then
// sleep. Pops are cheap (a failed pop in the centralized structure is one
// random probe, and the relaxed structures cap their internal re-sampling
// per pop — surfaced as Stats().PopRetries), so the spin phase is short:
// by the time backoff escalates, the structure has already burned its
// bounded retry budget and the failure is a real emptiness signal.
func backoff(fails int) {
	switch {
	case fails < 16:
		// busy retry
	case fails < 256:
		runtime.Gosched()
	default:
		time.Sleep(20 * time.Microsecond)
	}
}

// Stats exposes the backing data structure's cumulative counters,
// merged with the scheduler-level admission counters (Shed, Deferred,
// Readmitted, plus the tenant-quota split TenantShed/TenantDeferred) —
// a raw DS never sheds, so the scheduler is the only writer of those.
func (s *Scheduler[T]) Stats() core.Stats {
	st := s.ds.Stats()
	st.Shed = s.shed.Load()
	st.Deferred = s.deferredN.Load()
	st.Readmitted = s.readmitted.Load()
	st.TenantShed = s.quotaShed.Load()
	st.TenantDeferred = s.quotaDeferred.Load()
	return st
}

// Ctx is the per-place execution context passed to Execute.
type Ctx[T any] struct {
	s      *Scheduler[T]
	place  int
	led    *placeLedger  // the place's task counters
	fin    *finishRegion // innermost enclosing Finish; nil outside any
	rng    *xrand.Rand
	popBuf []envelope[T] // cached pop buffer; see workLoop
}

func (s *Scheduler[T]) newCtx(place int, rng *xrand.Rand) *Ctx[T] {
	return &Ctx[T]{s: s, place: place, led: &s.led[place], rng: rng}
}

// Place returns the executing place's id in [0, Places).
func (c *Ctx[T]) Place() int { return c.place }

// Rand returns the place-private deterministic RNG.
func (c *Ctx[T]) Rand() *xrand.Rand { return c.rng }

// Spawn stores v for later execution with the scheduler's default k.
//
//schedlint:hotpath
func (c *Ctx[T]) Spawn(v T) { c.SpawnK(c.s.cfg.K, v) }

// SpawnK stores v for later execution with an explicit per-task k
// (the data structure model supports choosing k per task, §1).
//
//schedlint:hotpath
func (c *Ctx[T]) SpawnK(k int, v T) {
	if c.fin != nil {
		c.fin.pending.Add(1)
	}
	c.led.spawn()
	c.s.ds.Push(c.place, k, envelope[T]{v: v, fin: c.fin})
}

// Finish runs body and then waits until all tasks transitively spawned
// within it have executed, helping with any available work while waiting
// (the blocking synchronization primitive of the async-finish model, §2).
// A region is the one piece of task accounting every place writes: each
// task spawned inside it adds to, and each one retired subtracts from,
// the region's shared counter. Tasks outside any Finish pay nothing for
// the mechanism.
func (c *Ctx[T]) Finish(body func()) {
	parent := c.fin
	region := &finishRegion{}
	c.fin = region
	body()
	c.s.workLoop(c, region)
	c.fin = parent
}
