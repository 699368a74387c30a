// Package repro is a Go implementation of the lock-free data structures
// for task-based priority scheduling by Wimmer, Cederman, Versaci, Träff
// and Tsigas (PPoPP 2014, arXiv:1312.2501), together with everything their
// evaluation depends on: a help-first async-finish task scheduler, the
// parallel single-source shortest path application, Erdős–Rényi graph
// generation, the phase-wise execution simulator, and the Theorem 5 bound
// on useless work.
//
// Three data structures with different scalability/ordering trade-offs are
// provided, plus one extension:
//
//   - WorkStealing: per-place priority queues with steal-half; local
//     prioritization only, no ordering guarantee across places.
//   - Centralized: a single ρ-relaxed global priority order; each pop may
//     miss at most the k newest tasks.
//   - Hybrid: work-stealing-like locality with ρ = P·k guarantees; idle
//     places "spy" references to other places' tasks without taking them.
//   - Relaxed: a structurally ρ-relaxed queue (the paper's §5.3 future
//     work): no temporal bookkeeping at all.
//
// Quick start:
//
//	s, _ := repro.NewScheduler(repro.SchedulerConfig[int]{
//		Places:   8,
//		Strategy: repro.Hybrid,
//		K:        512,
//		Less:     func(a, b int) bool { return a < b },
//		Execute: func(ctx repro.Ctx[int], job int) {
//			if job > 0 {
//				ctx.Spawn(job - 1) // higher priority (smaller) first
//			}
//		},
//	})
//	stats, _ := s.Run(100)
//
// See examples/ for complete programs and cmd/ for the binaries that
// regenerate the paper's figures.
package repro

import (
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/core/centralized"
	"repro/internal/core/hybrid"
	"repro/internal/core/wsprio"
	"repro/internal/fair"
	"repro/internal/obs"
	"repro/internal/relaxed"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Strategy selects a priority scheduling data structure.
type Strategy = sched.Strategy

// The available strategies. See the package documentation for trade-offs.
const (
	WorkStealing         = sched.WorkStealing
	Centralized          = sched.Centralized
	Hybrid               = sched.Hybrid
	Relaxed              = sched.Relaxed
	WorkStealingStealOne = sched.WorkStealingStealOne
	HybridNoSpy          = sched.HybridNoSpy
	GlobalHeap           = sched.GlobalHeap
	RelaxedSampleTwo     = sched.RelaxedSampleTwo
)

// Strategies returns every strategy, in declaration order; their String
// forms are the names ParseStrategy accepts.
func Strategies() []Strategy { return sched.Strategies() }

// ParseStrategy returns the strategy whose String is name; the error
// for any other name lists the accepted ones.
func ParseStrategy(name string) (Strategy, error) { return sched.ParseStrategy(name) }

// AdaptiveLimits bounds the adaptive controller's stickiness and batch
// knobs (SchedulerConfig.Adaptive): MinStickiness/MaxStickiness and
// MinBatch/MaxBatch, zero fields selecting the defaults.
type AdaptiveLimits = adapt.Limits

// DSStats aggregates data structure operation counters.
type DSStats = core.Stats

// Ctx is the execution context passed to task bodies. It is a tiny value
// wrapper; copying it is free.
type Ctx[T any] struct {
	inner *sched.Ctx[T]
}

// Place returns the executing place id in [0, Places).
func (c Ctx[T]) Place() int { return c.inner.Place() }

// Spawn stores v for later execution with the scheduler's default k.
func (c Ctx[T]) Spawn(v T) { c.inner.Spawn(v) }

// SpawnK stores v with an explicit per-task relaxation parameter.
func (c Ctx[T]) SpawnK(k int, v T) { c.inner.SpawnK(k, v) }

// Finish runs body and waits (helping with other work) until all tasks
// transitively spawned inside have completed.
func (c Ctx[T]) Finish(body func()) { c.inner.Finish(body) }

// SchedulerConfig configures NewScheduler.
type SchedulerConfig[T any] struct {
	// Places is the number of parallel workers (the paper's P).
	Places int
	// Strategy selects the backing data structure.
	Strategy Strategy
	// K is the default relaxation parameter for Spawn (paper: 512).
	K int
	// KMax bounds per-task k for the centralized structure (default 512).
	KMax int
	// Less is the priority function: Less(a, b) schedules a before b.
	Less func(a, b T) bool
	// Execute runs one task; it may spawn more via ctx.
	Execute func(ctx Ctx[T], v T)
	// Stale optionally marks superseded tasks for lazy elimination.
	Stale func(T) bool
	// Injectors is the number of external submission lanes for the serve
	// mode (Start/Submit/Drain/Stop); more lanes reduce contention
	// between concurrent Submit callers. The default 0 allocates none —
	// closed-world Run is then bit-identical to a scheduler without
	// serve support — and Start requires Injectors ≥ 1.
	Injectors int
	// Batch is the maximum number of tasks a worker pops per data
	// structure lock episode (default 1; > 1 pays off on strategies
	// with a native batch path, i.e. the relaxed MultiQueues).
	Batch int
	// Stickiness is the relaxed strategies' per-place lane stickiness S
	// (default: re-sample every operation). Ignored by other strategies.
	Stickiness int
	// Adaptive hands Stickiness and Batch to a runtime feedback
	// controller in serve mode: the configured values become seeds, and
	// every AdaptInterval (default 10ms) the controller grows the
	// effective S and B while the structure's contention counters stay
	// quiet (and, when RankSignal is wired, while the rank-error p99 is
	// under RankErrorBudget), backing off otherwise. Observe the
	// trajectory with AdaptiveState.
	Adaptive bool
	// AdaptiveLimits bounds the controller's S and B; zero fields
	// select the defaults (min 1, max 64 for both).
	AdaptiveLimits AdaptiveLimits
	// RankErrorBudget is the adaptive controller's p99 rank-error budget
	// (0 = none: grow until contention).
	RankErrorBudget float64
	// RankSignal optionally supplies the windowed rank-error p99
	// estimate the budget is checked against; negative return values
	// mean "no signal". Nil disables the budget check.
	RankSignal func() float64
	// AdaptInterval is the sampling window shared by the runtime
	// controllers — adaptive tuning and backpressure (0 = the 10ms
	// default).
	AdaptInterval time.Duration
	// Backpressure enables priority-aware admission control in serve
	// mode: an admission threshold over the Priority domain tightens
	// when the backlog exceeds what the observed service rate clears
	// within SojournBudget, deferring gated tasks to a bounded spillway
	// and shedding (ErrShed) once it is full. Priorities below
	// ProtectedBand are never gated.
	Backpressure bool
	// Priority maps a task to its numeric priority (smaller is more
	// urgent); required with Backpressure and must agree with Less
	// (Priority(a) < Priority(b) must imply Less(a, b)). Tasks with
	// equal Priority run in unspecified order.
	//
	// It is the one numeric projection of the order, and every strategy
	// with a queue to key uses it. The relaxed strategies key their lanes
	// on it and advertise each lane's minimum as a plain atomic int64
	// (the Less-only fallback orders its lanes by Less and advertises a
	// boxed copy of the task through a hazard-guarded per-lane box
	// recycle — also zero steady-state allocations per lock episode, at
	// a higher cost per push, pop and sample). Centralized and Hybrid
	// key their place-local queues on it. In all of them the key is
	// computed once per queue entry and the queue orders by it with
	// inlined integer compares; Less is not called there, which is why
	// equal priorities are unordered even if Less tells them apart.
	// Set Priority whenever tasks have a numeric priority, even with
	// Backpressure off.
	Priority func(T) int64
	// MaxPrio is the inclusive upper bound of the Priority domain
	// (required ≥ 1 with Backpressure; nothing else reads it).
	MaxPrio int64
	// SojournBudget is the target sojourn time backpressure polices
	// (0 = the 50ms default).
	SojournBudget time.Duration
	// ProtectedBand is the never-shed band: tasks with
	// Priority < ProtectedBand are admitted unconditionally.
	ProtectedBand int64
	// SpillCap bounds the backpressure deferral spillway (0 = the
	// 4096-task default).
	SpillCap int
	// TenantWeights enables multi-tenant fair scheduling in serve mode:
	// entry t is tenant t's weight in the weighted-fair capacity split.
	// Every AdaptInterval a fairness controller measures per-tenant
	// demand and the served rate, and while any tenant's backlog
	// exceeds its share of the sojourn budget it gates admission:
	// each tenant gets a per-window quota (weighted fair share of the
	// measured capacity, unused share redistributed water-filling
	// style) plus a guaranteed floor that bypasses the backpressure
	// priority threshold, so no tenant starves behind a hot one.
	// Weights must be ≥ 0 with at least one > 0; requires Tenant and
	// Backpressure. Observe with FairState/FairTrace/TenantCounters.
	TenantWeights []int64
	// Tenant maps a task to its tenant id in [0, len(TenantWeights));
	// out-of-range ids are clamped. Required with TenantWeights.
	Tenant func(T) int
	// TenantFloorFrac is the fraction of measured capacity reserved as
	// guaranteed admission floors, split across tenants by weight
	// (0 = the 0.05 default; at most 0.5).
	TenantFloorFrac float64
	// TenantBudgets optionally sets per-tenant sojourn budgets (SLO
	// bands): tenant t's backlog is policed against TenantBudgets[t]
	// instead of the global SojournBudget. Shorter entries mean the
	// controller gates sooner on that tenant's behalf. Missing or zero
	// entries inherit SojournBudget.
	TenantBudgets []time.Duration
	// Metrics optionally plugs a metrics registry into serve mode: the
	// scheduler publishes its core series to it once per control
	// window, entirely off the per-task hot path (0 allocs/task added).
	// Serve it with MetricsHandler; docs/METRICS.md lists the series.
	Metrics *Metrics
	// Recorder optionally captures the serve session to a versioned
	// JSONL trace for deterministic offline replay (cmd/replay). The
	// capture is sealed at Stop; a Recorder serves one session, and a
	// second Start with it fails.
	Recorder *Recorder
	// Hash optionally fingerprints task payloads for the Recorder's
	// arrival envelopes, so an incident's traffic mix can be analyzed
	// offline without capturing payloads. Nil records no hash.
	Hash func(T) uint64
	// Seed makes scheduling randomness reproducible.
	Seed uint64
}

// RunStats summarizes a completed Run or serve session: Elapsed
// (wall clock; Start to Stop for a session), Executed, Eliminated
// (stale tasks retired without running), Spawned (all tasks pushed,
// roots included) and DS, the data structure's operation counters.
type RunStats = sched.RunStats

// Scheduler executes priority-scheduled task-parallel computations.
type Scheduler[T any] struct {
	inner *sched.Scheduler[T]
}

// NewScheduler builds a scheduler over the selected data structure.
func NewScheduler[T any](cfg SchedulerConfig[T]) (*Scheduler[T], error) {
	// A nil *Metrics must stay a nil Sink interface, not a non-nil
	// interface wrapping a nil pointer.
	var sink obs.Sink
	if cfg.Metrics != nil {
		sink = cfg.Metrics
	}
	inner, err := sched.New(sched.Config[T]{
		Metrics:         sink,
		Places:          cfg.Places,
		Strategy:        cfg.Strategy,
		K:               cfg.K,
		KMax:            cfg.KMax,
		Less:            cfg.Less,
		Stale:           cfg.Stale,
		Injectors:       cfg.Injectors,
		Batch:           cfg.Batch,
		Stickiness:      cfg.Stickiness,
		Adaptive:        cfg.Adaptive,
		AdaptiveLimits:  cfg.AdaptiveLimits,
		RankErrorBudget: cfg.RankErrorBudget,
		RankSignal:      cfg.RankSignal,
		AdaptInterval:   cfg.AdaptInterval,
		Backpressure:    cfg.Backpressure,
		Priority:        cfg.Priority,
		MaxPrio:         cfg.MaxPrio,
		SojournBudget:   cfg.SojournBudget,
		ProtectedBand:   cfg.ProtectedBand,
		SpillCap:        cfg.SpillCap,
		TenantWeights:   cfg.TenantWeights,
		Tenant:          cfg.Tenant,
		TenantFloorFrac: cfg.TenantFloorFrac,
		TenantBudgets:   cfg.TenantBudgets,
		Recorder:        cfg.Recorder,
		Hash:            cfg.Hash,
		Seed:            cfg.Seed,
		Execute: func(ic *sched.Ctx[T], v T) {
			cfg.Execute(Ctx[T]{inner: ic}, v)
		},
	})
	if err != nil {
		return nil, err
	}
	return &Scheduler[T]{inner: inner}, nil
}

// Run executes the computation seeded by roots and blocks until every
// transitively spawned task has finished. Sequential reuse is allowed.
func (s *Scheduler[T]) Run(roots ...T) (RunStats, error) { return s.inner.Run(roots...) }

// Stats returns the backing data structure's cumulative counters.
func (s *Scheduler[T]) Stats() DSStats { return s.inner.Stats() }

// Serve-mode lifecycle errors, re-exported from the scheduler core.
var (
	// ErrNotServing is returned by Submit, SubmitK and Drain when the
	// scheduler is not between Start and Stop.
	ErrNotServing = sched.ErrNotServing
	// ErrAlreadyServing is returned by Start on a serving scheduler.
	ErrAlreadyServing = sched.ErrAlreadyServing
	// ErrShed is returned by the Submit family under
	// SchedulerConfig.Backpressure when the admission controller rejects
	// a task under overload. The task will not run; closed-loop callers
	// should back off and retry.
	ErrShed = sched.ErrShed
)

// Start switches the scheduler into the open-system serving mode: worker
// places run continuously — through empty periods — while tasks arrive
// via Submit/SubmitK from any goroutine, until Stop. Start and Run are
// mutually exclusive.
func (s *Scheduler[T]) Start() error { return s.inner.Start() }

// Submit stores v for execution by the serving workers with the default
// k. Safe for any number of concurrent callers; a task whose Submit
// returned nil is guaranteed to execute before Stop returns.
func (s *Scheduler[T]) Submit(v T) error { return s.inner.Submit(v) }

// SubmitK stores v with an explicit per-task relaxation parameter.
func (s *Scheduler[T]) SubmitK(k int, v T) error { return s.inner.SubmitK(k, v) }

// SubmitAll stores every element of vs as one batch with the default k:
// one injector-lane lock, and on strategies with a native batch path a
// single data structure lock acquisition. Acceptance is all-or-nothing,
// except under Backpressure where the gate decides per task and ErrShed
// reports a partially dropped batch.
func (s *Scheduler[T]) SubmitAll(vs []T) error { return s.inner.SubmitAll(vs) }

// SubmitAllK stores every element of vs as one batch with an explicit
// per-task relaxation parameter.
func (s *Scheduler[T]) SubmitAllK(k int, vs []T) error { return s.inner.SubmitAllK(k, vs) }

// Drain blocks until every task submitted before some quiescent instant
// has executed. The scheduler keeps serving.
func (s *Scheduler[T]) Drain() error { return s.inner.Drain() }

// Stop closes the submission gate, executes all accepted tasks, shuts
// the workers down and reports the serve session's stats. Idempotent.
func (s *Scheduler[T]) Stop() (RunStats, error) { return s.inner.Stop() }

// Serving reports whether the scheduler is between Start and Stop.
func (s *Scheduler[T]) Serving() bool { return s.inner.Serving() }

// AdaptiveState reports the stickiness and batch currently in force
// under SchedulerConfig.Adaptive (the configured seeds before the first
// control window, the controller's latest decision after). ok is false
// when the scheduler is not adaptive.
func (s *Scheduler[T]) AdaptiveState() (stickiness, batch int, ok bool) {
	return s.inner.AdaptiveState()
}

// BackpressureState reports the admission threshold currently in force
// under SchedulerConfig.Backpressure: tasks with Priority at or below
// threshold are admitted, the rest deferred or shed. MaxPrio means
// fully open. ok is false when backpressure is not configured.
func (s *Scheduler[T]) BackpressureState() (threshold int64, ok bool) {
	st, ok := s.inner.BackpressureState()
	return st.Threshold, ok
}

// FairnessState is the tenant-fairness controller's published decision;
// see FairState.
type FairnessState = fair.State

// FairnessWindow is one control-window record of the fairness
// controller's trace: the measured per-tenant sample plus the decision
// it produced. See FairTrace.
type FairnessWindow = fair.Window

// TenantCounters is one tenant's cumulative serve-session ledger; see
// Scheduler.TenantCounters.
type TenantCounters = sched.TenantCounters

// FairState reports the tenant-fairness controller's latest decision
// under SchedulerConfig.TenantWeights: whether the per-tenant admission
// gate is engaged, and if so each tenant's window quota and guaranteed
// floor. ok is false when tenancy is not configured.
func (s *Scheduler[T]) FairState() (FairnessState, bool) {
	return s.inner.FairState()
}

// FairTrace returns the fairness controller's recent control-window
// trace (a bounded ring, oldest first) for the current or last serve
// session. Nil when tenancy is not configured.
func (s *Scheduler[T]) FairTrace() []FairnessWindow {
	return s.inner.FairTrace()
}

// TenantCounters reports every tenant's cumulative ledger for the
// current or last serve session. Nil when tenancy is not configured.
func (s *Scheduler[T]) TenantCounters() []TenantCounters {
	return s.inner.TenantCounters()
}

// Pending returns the number of submitted-or-spawned tasks not yet
// executed — a monitoring/backpressure signal, immediately stale under
// concurrency.
func (s *Scheduler[T]) Pending() int64 { return s.inner.Pending() }

// Histogram is a streaming log-bucketed quantile estimator (≈1% relative
// error) for latency-style measurements; see NewHistogram.
type Histogram = stats.Histogram

// HistogramSummary is the fixed p50/p95/p99 report a Histogram emits.
type HistogramSummary = stats.Summary

// NewHistogram returns an empty streaming histogram. A Histogram is
// single-writer; merge per-goroutine instances with Merge.
func NewHistogram() *Histogram { return stats.NewHistogram() }

// PriorityDS is the raw data structure interface (§2.1) for callers who
// want the queues without the scheduler: every operation is executed in
// the context of a place id in [0, places), and each place id must be
// used by one goroutine at a time. Pop may fail spuriously under
// concurrency; at quiescence emptiness is exact.
//
// PushK and PopKInto are the batch forms that amortize synchronization:
// PushK stores a group of tasks and PopKInto fills the caller-owned out
// with up to len(out) tasks, each in (at best) one lock episode, and
// returns the count obtained — 0 is a possibly spurious failure, like
// Pop's ok == false.
type PriorityDS[T any] interface {
	Push(place int, k int, v T)
	Pop(place int) (v T, ok bool)
	PushK(place int, k int, vs []T)
	PopKInto(place int, out []T) int
	Stats() DSStats
}

// DSConfig configures a standalone data structure.
type DSConfig[T any] struct {
	// Places is the number of cooperating place ids.
	Places int
	// Less is the priority function.
	Less func(a, b T) bool
	// Stale optionally marks superseded tasks; OnEliminate observes their
	// retirement.
	Stale       func(T) bool
	OnEliminate func(T)
	// KMax bounds per-task k (centralized only; default 512).
	KMax int
	// Stickiness is the relaxed structures' per-place lane stickiness S
	// (default: re-sample every operation). Ignored by the others.
	Stickiness int
	// Seed drives internal randomization.
	Seed uint64
}

func (c DSConfig[T]) options() core.Options[T] {
	var onEliminate func(int, T)
	if f := c.OnEliminate; f != nil {
		onEliminate = func(_ int, v T) { f(v) }
	}
	return core.Options[T]{
		Places:      c.Places,
		Less:        c.Less,
		Stale:       c.Stale,
		OnEliminate: onEliminate,
		KMax:        c.KMax,
		Seed:        c.Seed,
	}
}

// NewCentralizedDS builds the centralized k-priority data structure.
func NewCentralizedDS[T any](cfg DSConfig[T]) (PriorityDS[T], error) {
	return centralized.New(cfg.options())
}

// NewHybridDS builds the hybrid k-priority data structure.
func NewHybridDS[T any](cfg DSConfig[T]) (PriorityDS[T], error) {
	return hybrid.New(cfg.options())
}

// NewWorkStealingDS builds the priority work-stealing data structure.
func NewWorkStealingDS[T any](cfg DSConfig[T]) (PriorityDS[T], error) {
	return wsprio.New(cfg.options())
}

// NewRelaxedDS builds the structurally ρ-relaxed priority queue (§5.3
// extension) with exhaustive minima sampling (SampleAll).
func NewRelaxedDS[T any](cfg DSConfig[T]) (PriorityDS[T], error) {
	return relaxed.NewWithConfig(cfg.options(), relaxed.Config{
		Mode: relaxed.SampleAll, Stickiness: cfg.Stickiness,
	})
}

// NewRelaxedSampleTwoDS builds the relaxed queue with classic MultiQueue
// two-choice sampling — the maximum-throughput, probabilistic-bound
// variant.
func NewRelaxedSampleTwoDS[T any](cfg DSConfig[T]) (PriorityDS[T], error) {
	return relaxed.NewWithConfig(cfg.options(), relaxed.Config{
		Mode: relaxed.SampleTwo, Stickiness: cfg.Stickiness,
	})
}
