// Open-system serving mode. The paper's experiments (and Run) are
// closed-world: a fixed task set is seeded, the workers drain it to
// quiescence and exit when the outstanding count reaches zero. A
// production scheduler instead runs continuously while tasks arrive from
// outside the worker places — the regime in which relaxed priority
// queues are actually deployed (Postnikova et al. evaluate exactly this
// open-system rank-error-vs-throughput trade-off).
//
// Serve mode keeps the same data structure and work loop but changes the
// termination protocol: workers treat an empty structure as "wait for
// traffic" rather than "done", and exit only after Stop has been called
// AND a scan of the task accounting finds nothing outstanding. External
// producers submit through dedicated injector places (the DS contract
// makes each place single-owner, so producers cannot push on the
// workers' place ids); each injector lane is a mutex-guarded place id
// past the worker places, and Submit rotates over the lanes so
// concurrent producers mostly hit different locks.
package sched

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/adapt"
	"repro/internal/backpressure"
	"repro/internal/fair"
	"repro/internal/xrand"
)

// Serve-mode lifecycle errors.
var (
	// ErrNotServing is returned by Submit, SubmitK and Drain when the
	// scheduler has not been started (or has been stopped).
	ErrNotServing = errors.New("sched: scheduler is not serving (call Start first)")
	// ErrAlreadyServing is returned by Start when the scheduler is
	// already serving.
	ErrAlreadyServing = errors.New("sched: scheduler is already serving")
	// ErrShed is returned by the Submit family under Config.Backpressure
	// when the admission controller rejects a task: its priority is
	// above the current threshold and the deferral spillway is full.
	// The task was not stored and will not run; closed-loop callers
	// should back off and retry, open-loop callers count it as load
	// shed. Priorities below Config.ProtectedBand never see this error.
	ErrShed = errors.New("sched: task shed by backpressure (scheduler overloaded)")
)

// Outcome is the per-task admission result reported by
// SubmitAllKOutcomes.
type Outcome uint8

const (
	// Admitted: the task passed the gate and was stored.
	Admitted Outcome = iota
	// Deferred: the task was parked in the spillway; it is accepted
	// (it will execute, at the latest when Stop flushes the spillway)
	// but waits for an under-loaded window.
	Deferred
	// Shed: the task was rejected and will not run.
	Shed
)

// injector is one external submission lane: a mutex-guarded place id.
// The mutex serializes concurrent producers on the same lane, restoring
// the single-owner-per-place contract for external pushes.
type injector struct {
	mu    sync.Mutex
	place int
}

// Start switches the scheduler into serving mode: the worker places
// start running and keep running — through empty periods — until Stop.
// Tasks are injected with Submit/SubmitK from any goroutine. Start and
// Run are mutually exclusive; a started scheduler must be Stopped before
// Run can be used again. Config.Injectors must be ≥ 1.
//
// Retrieval caveat for WorkStealing: injected tasks are obtained only by
// steals, and a worker steals only when its local queue is empty. A
// workload whose tasks continuously spawn successors can therefore keep
// every local queue non-empty and starve external submissions; prefer
// the k-priority strategies for self-sustaining serve workloads, or
// spawn follow-up work via Submit instead of Ctx.Spawn.
func (s *Scheduler[T]) Start() error {
	s.serveMu.Lock()
	defer s.serveMu.Unlock()
	if s.started {
		return ErrAlreadyServing
	}
	if len(s.injectors) == 0 {
		return fmt.Errorf("sched: serve mode needs Config.Injectors ≥ 1 (external submission lanes)")
	}
	if s.cfg.Strategy == HybridNoSpy {
		// Without spying, tasks parked at an injector place can only be
		// popped by that place's owner — and injector places never pop,
		// so submitted tasks would be stranded forever.
		return fmt.Errorf("sched: strategy %s cannot serve: injected tasks are only visible to their birth place", s.cfg.Strategy)
	}
	if rec := s.cfg.Recorder; rec != nil && rec.Begun() {
		// A second header after the end record would make a reader
		// re-decide the first session's windows from this one's seeds.
		return fmt.Errorf("sched: Config.Recorder already holds a session; a Recorder serves one Start/Stop")
	}
	if !s.active.CompareAndSwap(false, true) {
		return fmt.Errorf("sched: cannot Start while Run is in progress")
	}
	s.started = true
	s.stopping.Store(false)
	s.serveT0 = time.Now()
	s.serveBase, s.serveBaseDS = s.scan(nil), s.Stats()

	seeds := xrand.New(s.cfg.Seed ^ 0x5e7e5e7e)
	for pl := 0; pl < s.cfg.Places; pl++ {
		s.workers.Add(1)
		go func(pl int, rng *xrand.Rand) {
			defer s.workers.Done()
			s.workLoop(s.newCtx(pl, rng), nil)
		}(pl, seeds.Split())
	}
	// Every configured controller starts the session fresh: a new loop
	// at its configured seed, primed with the current cumulative totals
	// (the counters span earlier sessions and closed-world Runs, and the
	// first window must sample this session only), its seed applied to
	// the machinery. Sessions are then independent, reproducible
	// experiments rather than continuations of whatever the last one
	// converged to.
	if s.cfg.Adaptive {
		loop := fresh(adapt.NewController(s.adaptCfg, s.adaptSeed))
		s.applyKnobs(s.adaptCtl.Begin(loop, s.snapshot()))
	}
	if s.cfg.Backpressure {
		loop := fresh(backpressure.NewController(s.bpCfg))
		s.bpGate.Store(s.bpCtl.Begin(loop, s.bpSnapshot(-1)).Threshold)
	}
	if s.tenants > 0 {
		loop := fresh(fair.NewController(s.fairCfg))
		s.applyFair(s.fairCtl.Begin(loop, s.fairSnapshot()))
	}
	if s.cfg.Recorder != nil {
		// Header + controller configs first, so the capture is
		// self-contained before the first window record lands.
		s.recBegin(s.cfg.Recorder)
	}
	if s.metrics != nil {
		s.primeMetrics()
	}
	if s.cfg.Adaptive || s.cfg.Backpressure || s.metrics != nil || s.cfg.Recorder != nil {
		// The loop runs for metrics/recorder-only sessions too: window
		// sampling lives there even when no controller consumes it.
		s.ctrlStop = make(chan struct{})
		s.ctrlDone = make(chan struct{})
		go s.ctlLoop(s.ctrlStop, s.ctrlDone)
	}
	s.serving.Store(true)
	s.accepting.Store(true)
	return nil
}

// fresh unwraps a controller constructor's result. New validated every
// controller config, so an error here is a bug, not an input.
func fresh[L any](loop *L, err error) *L {
	if err != nil {
		panic(fmt.Sprintf("sched: controller config rejected after New validated it: %v", err))
	}
	return loop
}

// ctlLoop is the controller goroutine: one tick per interval until Stop
// closes the stop channel. It lives strictly inside a serve session —
// Start creates it and Stop joins it before returning. All the runtime
// controllers (adaptive S/B, backpressure admission, tenant fairness)
// share the loop: Config.RankSignal reads have a side effect (the
// estimator decays), so a single read per window is taken here and
// fanned out to the consumers.
func (s *Scheduler[T]) ctlLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(s.cfg.AdaptInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			if s.metrics != nil {
				// Final publish so the exported counters cover the
				// session's tail exactly: Stop joins this goroutine only
				// after the workers quiesce, so the last delta closes the
				// books on every executed task. No controller window is
				// stepped here — the traces stay the controllers' own.
				rank := -1.0
				if s.cfg.RankSignal != nil {
					rank = s.cfg.RankSignal()
				}
				s.obsTick(time.Since(s.serveT0), rank)
			}
			return
		case <-t.C:
			at := time.Since(s.serveT0)
			rank := -1.0
			if s.cfg.RankSignal != nil {
				rank = s.cfg.RankSignal()
			}
			rec := s.cfg.Recorder
			if rec != nil {
				// Drain the arrival ring before this window's decision
				// records, keeping the capture roughly time-ordered.
				rec.Flush()
			}
			if s.cfg.Adaptive {
				w := s.adaptTick(at, rank)
				if rec != nil {
					rec.AdaptWindow(w)
				}
			}
			if s.cfg.Backpressure {
				w := s.bpTick(at, rank)
				if rec != nil {
					rec.BackpressureWindow(w)
				}
			}
			if s.tenants > 0 {
				w := s.fairTick(at)
				if rec != nil {
					rec.FairWindow(w)
				}
			}
			if s.metrics != nil {
				s.obsTick(at, rank)
			}
		}
	}
}

// snapshot collects the cumulative counter totals the adaptive
// controller differences into window samples. The rank signal is
// deliberately not read here: it is a per-window estimate whose read
// has a side effect (the estimator decays), so ctlLoop reads it once
// per window and passes it in.
func (s *Scheduler[T]) snapshot() adapt.Cumulative {
	st := s.ds.Stats()
	cum := adapt.Cumulative{
		Pops:        st.Pops,
		PopFailures: st.PopFailures,
		PopRetries:  st.PopRetries,
		Resticks:    st.Resticks,
		BatchPops:   st.BatchPops,
		Pending:     s.Pending(),
		RankErrP99:  -1,
	}
	if s.rlx != nil {
		cum.LaneContention = s.rlx.ContentionTotal()
	}
	return cum
}

// maxTraceWindows bounds the retained decision trace: a ring of the
// most recent windows (~40s of history at the default 10ms interval),
// so a long-lived serving process does not grow its trace without
// bound while short experiment runs (loadgen, the benchmarks) keep
// their full trajectory.
const maxTraceWindows = 4096

// adaptTick closes one adaptive control window: sample the cumulative
// counters, step the controller, and apply its decision to the live
// knobs. rank is the window's rank-error p99 estimate (< 0: none).
// The decision window is returned for the session recorder.
func (s *Scheduler[T]) adaptTick(at time.Duration, rank float64) adapt.Window {
	cum := s.snapshot()
	cum.RankErrP99 = rank
	w := s.adaptCtl.Step(at, cum)
	s.applyKnobs(w.State)
	return w
}

// applyKnobs propagates a controller state to the execution machinery:
// the worker pop loops pick the batch up on their next episode, the
// relaxed structure picks the stickiness up on its next lane selection.
func (s *Scheduler[T]) applyKnobs(st adapt.State) {
	b := st.Batch
	if b > s.maxBatch {
		b = s.maxBatch
	}
	if b < 1 {
		b = 1
	}
	s.effBatch.Store(int32(b))
	if s.rlx != nil {
		s.rlx.SetStickiness(st.Stickiness)
	}
}

// bpSnapshot collects the cumulative admission totals the backpressure
// controller differences into window samples. rank is the window's
// rank-error p99 estimate (< 0: none).
func (s *Scheduler[T]) bpSnapshot(rank float64) backpressure.Cumulative {
	now := s.scan(nil)
	return backpressure.Cumulative{
		Admitted:   s.admittedN.Load(),
		Deferred:   s.deferredN.Load(),
		Shed:       s.shed.Load(),
		Readmitted: s.readmitted.Load(),
		Executed:   now.executed,
		Pending:    now.outstanding(),
		Spill:      int64(s.spill.Len()),
		RankErrP99: rank,
	}
}

// bpTick closes one backpressure control window: sample, step the
// controller, publish the new threshold to the Submit hot path, and
// re-admit whatever the window's spare capacity allows back out of the
// spillway.
func (s *Scheduler[T]) bpTick(at time.Duration, rank float64) backpressure.Window {
	w := s.bpCtl.Step(at, s.bpSnapshot(rank))
	s.bpGate.Store(w.State.Threshold)
	if q := backpressure.ReadmitQuota(s.bpCfg, w.Sample); q > 0 {
		s.readmitSpill(int(q), true)
	}
	return w
}

// minReadmitRun is the smallest batch worth its own injector-lane lock
// episode when a readmitted spillway batch is striped over the lanes: a
// handful of tasks gains nothing from fanning out and would pay one
// lock acquisition each.
const minReadmitRun = 32

// readmitChunk is the per-run length cap striping a drained batch of n
// tasks over the injector lanes: ⌈n/lanes⌉, floored at minReadmitRun.
func readmitChunk(n, lanes int) int {
	if lanes < 1 {
		lanes = 1
	}
	chunk := (n + lanes - 1) / lanes
	if chunk < minReadmitRun {
		chunk = minReadmitRun
	}
	return chunk
}

// runEnd returns the exclusive end of the push run starting at start:
// the longest prefix of consecutive equal-k tasks, capped at chunk.
// readmitSpill cuts a drained batch with it: tasks of equal k stay
// together (each run is one PushK with that run's original k), and the
// cap spreads a batch over the injector lanes instead of serializing it
// behind a single lane's lock.
func runEnd[T any](ds []deferredTask[T], start, chunk int) int {
	end := start + 1
	for end < len(ds) && end-start < chunk && ds[end].k == ds[start].k {
		end++
	}
	return end
}

// readmitSpill moves up to max deferred tasks (oldest first) from the
// spillway into the data structure, through the injector lanes like any
// external traffic — each task with the relaxation parameter its Submit
// originally requested (runs of equal k share one batch push), and the
// batch striped over multiple injector lanes rather than funneled
// through one: a single lane per tick serialized the whole readmission
// burst behind one lane lock while the other lanes sat idle.
// They were counted as created when their Submit accepted them, so only
// the Readmitted counter moves here. Reports whether anything drained.
// Safe for concurrent callers (the controller tick, Stop's flush, the
// Submit re-flush race and Drain's nudge may overlap).
//
// respectQuota makes readmission honor the tenant gate: while it is
// engaged, a drained task consumes its tenant's window sequence like a
// fresh arrival and is parked in the quota hold when over quota, so a
// hot tenant's spilled backlog cannot flood the structure at the
// window boundary ahead of cold tenants' fresh traffic. (Re-offering
// over-quota tasks to the ring instead would race with producers
// refilling it, and every lost race admitted a task over quota — a
// leak that let a flooding tenant run far past its share.) Held tasks
// lead the next readmission, which drains the ring again only once
// the hold is empty. The controller tick respects quotas; Stop's
// flush and Drain's nudge bypass them — they exist to reach
// quiescence, and every parked task was accepted and must execute.
func (s *Scheduler[T]) readmitSpill(max int, respectQuota bool) bool {
	// Quota-held tasks go first: they are the oldest accepted work.
	var held []deferredTask[T]
	if s.tenants > 0 {
		s.holdMu.Lock()
		held = s.quotaHold
		s.quotaHold = nil
		s.holdMu.Unlock()
	}
	// Clamp the drain scratch to the spillway's current occupancy: the
	// quota can far exceed what is parked, and the arena retains the
	// largest buffer ever grown.
	if l := s.spill.Len(); max > l {
		max = l
	}
	if max < 0 {
		max = 0
	}
	if respectQuota && len(held) > 0 && s.tenGated.Load() {
		// While the gate is engaged, no fresh spillway tasks are drained
		// until the hold clears — this bounds the hold to one chunk.
		max = 0
	}
	if len(held) == 0 && max < 1 {
		return false
	}
	dblk := s.defArena.get()
	dbuf := dblk.grow(len(held) + max)
	got := copy(dbuf, held)
	if max > 0 {
		got += s.spill.DrainUpToInto(dbuf[len(held):])
	}
	if got == 0 {
		s.defArena.put(dblk)
		return false
	}
	ds := dbuf[:got]
	if respectQuota && s.tenants > 0 && s.tenGated.Load() {
		kept := ds[:0]
		var over []deferredTask[T]
		for _, d := range ds {
			if _, overQuota := s.ten[s.tenantOf(d.env.v)].gate(); overQuota {
				over = append(over, d)
				continue
			}
			kept = append(kept, d)
		}
		if len(over) > 0 {
			s.holdMu.Lock()
			s.quotaHold = append(s.quotaHold, over...)
			s.holdMu.Unlock()
		}
		ds = kept
		if len(ds) == 0 {
			s.defArena.put(dblk)
			return false
		}
		got = len(ds)
	}
	if s.tenants > 0 {
		for _, d := range ds {
			s.ten[s.tenantOf(d.env.v)].readmitted.v.Add(1)
		}
	}
	s.readmitted.Add(int64(got))
	chunk := readmitChunk(got, len(s.injectors))
	eblk := s.envArena.get()
	for start := 0; start < got; {
		end := runEnd(ds, start, chunk)
		run := ds[start:end]
		envs := eblk.grow(len(run))
		for i, d := range run {
			envs[i] = d.env
		}
		inj := s.injectors[s.nextInj.Add(1)%uint64(len(s.injectors))]
		inj.mu.Lock()
		s.ds.PushK(inj.place, run[0].k, envs)
		inj.mu.Unlock()
		start = end
	}
	s.envArena.put(eblk)
	s.defArena.put(dblk)
	return true
}

// flushSpill drains the spillway completely. Stop calls it after
// closing the submission gate so every deferred (accepted) task
// executes before Stop returns; park calls it again when it observes
// a closed gate right after deferring, closing the race
// where a task is parked just after Stop's flush (the seq-cst order of
// the accepting flag guarantees one of the two flushes sees it).
func (s *Scheduler[T]) flushSpill() {
	for s.readmitSpill(1024, false) {
	}
}

// AdaptiveState reports the knob setting currently in force (the
// configured seeds before the first window, the last decision after).
// ok is false when the scheduler was not built with Config.Adaptive.
func (s *Scheduler[T]) AdaptiveState() (stickiness, batch int, ok bool) {
	if !s.cfg.Adaptive {
		return 0, 0, false
	}
	st := s.adaptCtl.State()
	return st.Stickiness, st.Batch, true
}

// AdaptiveTrace returns a copy of the per-window decision trace of the
// current (or most recent) serve session, oldest window first — the
// S/B trajectory loadgen emits alongside its results. Only the most
// recent maxTraceWindows windows are retained. Nil when Config.Adaptive
// is off.
func (s *Scheduler[T]) AdaptiveTrace() []adapt.Window {
	if s.adaptCtl == nil {
		return nil
	}
	return s.adaptCtl.Trace()
}

// BackpressureState reports the admission threshold currently in force
// (fully open before the first window, the last decision after). ok is
// false when the scheduler was not built with Config.Backpressure.
func (s *Scheduler[T]) BackpressureState() (backpressure.State, bool) {
	if !s.cfg.Backpressure {
		return backpressure.State{}, false
	}
	return s.bpCtl.State(), true
}

// BackpressureTrace returns a copy of the admission controller's
// per-window decision trace of the current (or most recent) serve
// session, oldest window first. Only the most recent maxTraceWindows
// windows are retained. Nil when Config.Backpressure is off.
func (s *Scheduler[T]) BackpressureTrace() []backpressure.Window {
	if s.bpCtl == nil {
		return nil
	}
	return s.bpCtl.Trace()
}

// Submit stores v for execution by the serving workers with the
// scheduler's default k. It is safe to call from any number of
// goroutines concurrently. It fails with ErrNotServing outside a
// Start/Stop window (and, under Config.Backpressure, with ErrShed when
// the admission controller rejects the task); a task whose Submit
// returned nil is guaranteed to be executed (or staleness-eliminated)
// before Stop returns — deferred tasks included.
//
//schedlint:hotpath
func (s *Scheduler[T]) Submit(v T) error { return s.SubmitK(s.cfg.K, v) }

// SubmitK stores v with an explicit per-task relaxation parameter k.
//
//schedlint:hotpath
func (s *Scheduler[T]) SubmitK(k int, v T) error {
	// Count the task before checking the gate: once injected is raised,
	// workers (and Stop) will not conclude quiescence until it is either
	// pushed and retired, or rolled back on the rejection path below.
	s.injected.Add(1)
	if !s.accepting.Load() {
		s.injected.Add(-1)
		return ErrNotServing
	}
	if s.cfg.Recorder != nil {
		s.recArrival(k, v)
	}
	if s.spill != nil {
		ten, ok, byQuota := s.admit(v, s.bpGate.Load(), s.tenGated.Load())
		if !ok {
			if s.park(k, v, ten, byQuota) == Shed {
				return ErrShed
			}
			return nil
		}
		s.admittedN.Add(1)
	}
	inj := s.injectors[s.nextInj.Add(1)%uint64(len(s.injectors))]
	inj.mu.Lock()
	s.ds.Push(inj.place, k, envelope[T]{v: v})
	inj.mu.Unlock()
	return nil
}

// SubmitAll stores every element of vs for execution with the
// scheduler's default k. See SubmitAllK.
func (s *Scheduler[T]) SubmitAll(vs []T) error { return s.SubmitAllK(s.cfg.K, vs) }

// SubmitAllOutcomes is SubmitAllKOutcomes with the scheduler's default
// relaxation parameter.
func (s *Scheduler[T]) SubmitAllOutcomes(vs []T, out []Outcome) (int, error) {
	return s.SubmitAllKOutcomes(s.cfg.K, vs, out)
}

// SubmitAllK stores every element of vs with an explicit per-task
// relaxation parameter k, as one batch: the whole group is pushed under
// a single injector-lane lock and — on structures with a native batch
// path (core.DS.PushK) — a single data structure lock acquisition.
// Without backpressure, acceptance is all-or-nothing: either every task
// is accepted (nil) or none is (ErrNotServing). Under
// Config.Backpressure the admission gate decides per task, so a batch
// can be partially accepted: the admitted subset is still pushed as one
// batch, the rest is deferred or shed, and ErrShed reports that at
// least one task was dropped — callers needing per-task results use
// SubmitAllKOutcomes. Tasks of one batch land in the structure
// together, so producers trading latency for throughput should keep
// batches small relative to their latency budget.
//
//schedlint:hotpath
func (s *Scheduler[T]) SubmitAllK(k int, vs []T) error {
	if len(vs) == 1 {
		// The singles path skips the envelope-slice allocation — this
		// matters because SubmitAll with a 1-element buffer is exactly
		// what an unbatched producer loop degenerates to.
		return s.SubmitK(k, vs[0])
	}
	_, err := s.SubmitAllKOutcomes(k, vs, nil)
	return err
}

// SubmitAllKOutcomes is SubmitAllK with per-task admission results:
// out, when non-nil, must have at least len(vs) entries and out[i] is
// filled with the Outcome of vs[i]. It returns the number of accepted
// tasks (admitted or deferred) and nil, ErrShed (≥ 1 task shed) or
// ErrNotServing (nothing submitted). Without backpressure every task is
// admitted and the call is exactly SubmitAllK.
//
//schedlint:hotpath
func (s *Scheduler[T]) SubmitAllKOutcomes(k int, vs []T, out []Outcome) (int, error) {
	if out != nil && len(out) < len(vs) {
		// Checked before any state change: failing mid-batch would leave
		// injected raised for tasks never processed and wedge Stop.
		//schedlint:ignore misuse error on the cold validation edge, before any task is processed
		return 0, fmt.Errorf("sched: SubmitAllKOutcomes out has %d entries for %d tasks", len(out), len(vs))
	}
	if len(vs) == 0 {
		if !s.accepting.Load() {
			return 0, ErrNotServing
		}
		return 0, nil
	}
	n := int64(len(vs))
	// Count the batch before checking the gate, exactly like SubmitK.
	s.injected.Add(n)
	if !s.accepting.Load() {
		s.injected.Add(-n)
		return 0, ErrNotServing
	}
	if s.cfg.Recorder != nil {
		s.recArrivalBatch(k, vs)
	}
	// Under backpressure one read of the gate state decides the whole
	// batch, so a batch is internally consistent even while the
	// controllers move the gates (the tenant window counters stay
	// per-task sequence numbers). The admitted subset — everything,
	// without backpressure — is staged and pushed as one batch.
	gated := s.spill != nil
	threshold, tenGated := s.bpGate.Load(), s.tenGated.Load()
	blk := s.envArena.get()
	envs := blk.grow(len(vs))[:0]
	shedN := 0
	for i, v := range vs {
		o := Admitted
		if gated {
			if ten, ok, byQuota := s.admit(v, threshold, tenGated); !ok {
				if o = s.park(k, v, ten, byQuota); o == Shed {
					shedN++
				}
			}
		}
		if o == Admitted {
			//schedlint:ignore envs was arena-grown to len(vs) above; append stays within capacity
			envs = append(envs, envelope[T]{v: v})
		}
		if out != nil {
			out[i] = o
		}
	}
	if n := int64(len(envs)); n > 0 {
		if gated {
			s.admittedN.Add(n)
		}
		inj := s.injectors[s.nextInj.Add(1)%uint64(len(s.injectors))]
		inj.mu.Lock()
		s.ds.PushK(inj.place, k, envs)
		inj.mu.Unlock()
	}
	s.envArena.put(blk) // PushK copied the admitted envelopes; the buffer is dead
	if shedN > 0 {
		return len(vs) - shedN, ErrShed
	}
	return len(vs), nil
}

// Drain blocks until the scheduler observes a quiescent instant: every
// task submitted before that instant has been executed (or eliminated).
// The scheduler keeps serving — Drain does not stop the workers and
// concurrent producers may keep submitting, in which case Drain returns
// at the first scan of the task accounting that finds nothing
// outstanding.
//
// Deferred (spillway) tasks count as outstanding — they were accepted —
// but re-enter the structure only on under-loaded controller ticks, and
// a scheduler that has just come off a sustained overload may not see
// such a tick for a long time (or, with a long AdaptInterval, ever
// during the wait). Drain therefore nudges readmission itself: each
// backoff round flushes a bounded chunk of the spillway into the
// structure, so the quiescence spin always makes progress once the
// producers go quiet instead of wedging behind a controller schedule.
func (s *Scheduler[T]) Drain() error {
	if !s.serving.Load() {
		return ErrNotServing
	}
	fails := 0
	for !s.quiescent() {
		if s.spill != nil && (s.spill.Len() > 0 || s.holdLen() > 0) {
			s.readmitSpill(s.bpCfg.ReadmitChunk, false)
		}
		fails++
		backoff(fails)
	}
	return nil
}

// holdLen reports the quota hold's occupancy (see readmitSpill).
func (s *Scheduler[T]) holdLen() int {
	if s.tenants == 0 {
		return 0
	}
	s.holdMu.Lock()
	defer s.holdMu.Unlock()
	return len(s.quotaHold)
}

// Stop closes the submission gate, waits until every accepted task has
// executed, and shuts the workers down. It is idempotent: extra Stops
// (including on a never-started scheduler) return zero stats and no
// error. After Stop, the scheduler can be started again or used with Run.
func (s *Scheduler[T]) Stop() (RunStats, error) {
	s.serveMu.Lock()
	defer s.serveMu.Unlock()
	if !s.started {
		return RunStats{}, nil
	}
	s.accepting.Store(false)
	if s.spill != nil {
		// Every deferred task was accepted (its Submit returned nil), so
		// it must execute before Stop returns: push the whole spillway
		// into the structure while the workers are still running.
		s.flushSpill()
	}
	s.stopping.Store(true)
	s.workers.Wait()
	if s.ctrlStop != nil {
		// Join the controller goroutine, then restore the raw
		// configured knobs — not the limit-clamped controller seed, so
		// a closed-world Run behaves identically before and after a
		// serve session. The trace, AdaptiveState and BackpressureState
		// keep reporting the session's final values.
		close(s.ctrlStop)
		<-s.ctrlDone
		s.ctrlStop, s.ctrlDone = nil, nil
		if s.cfg.Adaptive {
			stick := s.cfg.Stickiness
			if stick < 1 {
				stick = 1 // the relaxed structures' unsticky default
			}
			s.applyKnobs(adapt.State{Stickiness: stick, Batch: s.cfg.Batch})
		}
		if s.spill != nil {
			// Reopen the gate between sessions: the next Start begins
			// from a clean, fully open slate.
			s.bpGate.Store(s.bpCfg.MaxPrio)
		}
		if s.tenants > 0 {
			// Disengage the tenant gate too; FairState keeps reporting
			// the session's final decision.
			s.tenGated.Store(false)
		}
	}
	if rec := s.cfg.Recorder; rec != nil {
		// The controller goroutine has joined; no producer can race the
		// final drain. Finish seals the capture so the session's file is
		// self-contained — the owner closes the destination and checks
		// rec.Err for write failures.
		rec.Flush()
		rec.Finish()
	}
	s.started = false
	s.serving.Store(false)
	s.active.Store(false)
	return s.runStats(time.Since(s.serveT0), s.serveBase, s.serveBaseDS), nil
}

// Serving reports whether the scheduler is between Start and Stop.
func (s *Scheduler[T]) Serving() bool { return s.serving.Load() }
