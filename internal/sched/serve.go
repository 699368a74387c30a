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
// concurrent producers mostly hit different locks. A batch is staged in
// its lane's own buffer under the lock the push already takes.
package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

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
// the single-owner-per-place contract for external pushes, and guards
// envs, the buffer a batch push stages its envelopes in. PushK copies
// what it is handed, so the staged envelopes are dead once it returns
// and the buffer, retained across pushes at its high-water mark, is the
// next batch's: staging costs no allocation and no lock of its own.
type injector[T any] struct {
	mu    sync.Mutex
	place int
	envs  []envelope[T]
}

// stage returns the lane's staging buffer resized to n; callers hold mu.
func (inj *injector[T]) stage(n int) []envelope[T] {
	if cap(inj.envs) < n {
		//schedlint:ignore staging growth is a retained high-water mark; steady state re-uses the buffer
		inj.envs = make([]envelope[T], n)
	}
	return inj.envs[:n]
}

// nextInjector returns the injector lane for the next push: the only one, or
// the next in the round-robin over several.
//
//schedlint:hotpath
func (s *Scheduler[T]) nextInjector() *injector[T] {
	if len(s.injectors) == 1 {
		return s.injectors[0]
	}
	return s.injectors[s.nextInj.Add(1)%uint64(len(s.injectors))]
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
	// Read once per session, never per pop: GOMAXPROCS(0) takes the
	// runtime's scheduler lock. The producer calling Submit needs a P
	// too, so Places == GOMAXPROCS is already crowded (see idleStep).
	s.crowded = s.cfg.Places >= runtime.GOMAXPROCS(0)

	seeds := xrand.New(s.cfg.Seed ^ 0x5e7e5e7e)
	for pl := 0; pl < s.cfg.Places; pl++ {
		s.workers.Add(1)
		go func(pl int, rng *xrand.Rand) {
			defer s.workers.Done()
			s.workLoop(s.newCtx(pl, rng), nil, s.slot)
		}(pl, seeds.Split())
	}
	// Every configured controller starts the session fresh: a new loop
	// at its configured seed, primed with the current cumulative totals
	// (the counters span earlier sessions and closed-world Runs, and the
	// first window must sample this session only), its seed applied to
	// the machinery. Sessions are then independent, reproducible
	// experiments rather than continuations of whatever the last one
	// converged to.
	if s.cfg.Backpressure {
		loop := fresh(backpressure.NewController(s.bpCfg))
		s.bpGate.Store(s.bpCtl.Begin(loop, s.bpSnapshot()).Threshold)
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
	if s.cfg.Backpressure || s.metrics != nil || s.cfg.Recorder != nil {
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
// Start creates it and Stop joins it before returning. Both runtime
// controllers (backpressure admission, tenant fairness) share the loop
// with the metrics publication. With a Recorder it also drains the
// capture's arrival ring: at every tick, and whenever the ring's Wake
// says half of it is unflushed — then with Flush alone, stepping no
// controller window, so the ring is sized by the wake-up lag rather
// than by a whole window of arrivals.
func (s *Scheduler[T]) ctlLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(s.cfg.AdaptInterval)
	defer t.Stop()
	var wake <-chan struct{} // nil without a Recorder: never ready
	if s.cfg.Recorder != nil {
		wake = s.cfg.Recorder.Wake()
	}
	for {
		select {
		case <-stop:
			if s.metrics != nil {
				// Final publish so the exported counters cover the
				// session's tail exactly: Stop joins this goroutine only
				// after the workers quiesce, so the last delta closes the
				// books on every executed task. No controller window is
				// stepped here — the traces stay the controllers' own.
				s.obsTick(time.Since(s.serveT0))
			}
			return
		case <-wake:
			s.cfg.Recorder.Flush()
		case <-t.C:
			at := time.Since(s.serveT0)
			rec := s.cfg.Recorder
			if rec != nil {
				// Drain the arrival ring before this window's decision
				// records, keeping the capture roughly time-ordered.
				rec.Flush()
			}
			if s.cfg.Backpressure {
				w := s.bpTick(at)
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
				s.obsTick(at)
			}
		}
	}
}

// maxTraceWindows bounds the retained decision trace: a ring of the
// most recent windows (~40s of history at the default 10ms interval),
// so a long-lived serving process does not grow its trace without
// bound while short experiment runs (loadgen, the benchmarks) keep
// their full trajectory. The ring grows with use, so a short session
// holds the windows it decided, not 4096.
const maxTraceWindows = 4096

// bpSnapshot collects the cumulative admission totals the backpressure
// controller differences into window samples.
func (s *Scheduler[T]) bpSnapshot() backpressure.Cumulative {
	now := s.scan(nil)
	return backpressure.Cumulative{
		Admitted:   s.admittedN.Load(),
		Deferred:   s.deferredN.Load(),
		Shed:       s.shed.Load(),
		Readmitted: s.readmitted.Load(),
		Executed:   now.executed,
		Pending:    now.outstanding(),
		Spill:      int64(s.spill.Len()),
	}
}

// bpTick closes one backpressure control window: sample, step the
// controller, publish the new threshold to the Submit hot path, and
// re-admit whatever the window's spare capacity allows back out of the
// spillway.
func (s *Scheduler[T]) bpTick(at time.Duration) backpressure.Window {
	w := s.bpCtl.Step(at, s.bpSnapshot())
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
// Submit re-flush race and Drain's nudge may overlap): readmitMu
// serializes them over the drain scratch and the quota hold. It is
// taken before any injector lock and never under one — the Submit
// paths call park, which may come here, only after releasing theirs.
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
	s.readmitMu.Lock()
	defer s.readmitMu.Unlock()
	// Quota-held tasks go first: they are the oldest accepted work.
	held := s.quotaHold
	s.quotaHold = held[:0] // held is copied into the scratch below
	// Clamp the drain scratch to the spillway's current occupancy: the
	// quota can far exceed what is parked, and the scratch is retained
	// at the largest size ever grown.
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
	if cap(s.readmitBuf) < len(held)+max {
		s.readmitBuf = make([]deferredTask[T], len(held)+max)
	}
	dbuf := s.readmitBuf[:len(held)+max]
	got := copy(dbuf, held)
	if max > 0 {
		got += s.spill.DrainUpToInto(dbuf[len(held):])
	}
	if got == 0 {
		return false
	}
	ds := dbuf[:got]
	if respectQuota && s.tenants > 0 && s.tenGated.Load() {
		kept := ds[:0]
		for _, d := range ds {
			if _, overQuota := s.ten[s.tenantOf(d.env.v)].gate(); overQuota {
				s.quotaHold = append(s.quotaHold, d)
				continue
			}
			kept = append(kept, d)
		}
		ds = kept
		if len(ds) == 0 {
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
	for start := 0; start < got; {
		end := runEnd(ds, start, chunk)
		run := ds[start:end]
		inj := s.nextInjector()
		inj.mu.Lock()
		envs := inj.stage(len(run))
		for i, d := range run {
			envs[i] = d.env
		}
		s.ds.PushK(inj.place, run[0].k, envs)
		inj.mu.Unlock()
		start = end
	}
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
// After the recorder and the admission gate have seen v, a scheduler
// with one worker place hands v straight to that place when its last pop
// came back empty and v is the only task outstanding (see handoff.go):
// the place runs it from its handoff slot and the structure never holds
// it. A pop returning the only outstanding task is exact, so k does not
// matter there. Otherwise v is pushed through an injector lane.
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
	if s.handOff(v) {
		return nil
	}
	inj := s.nextInjector()
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
// batch per gatedRun tasks, the rest is deferred or shed, and ErrShed
// reports that at least one task was dropped — callers needing per-task
// results use SubmitAllKOutcomes, which pushes the admitted subset of
// the whole call as one batch. Tasks of one batch land in the structure
// together, so producers trading latency for throughput should keep
// batches small relative to their latency budget.
//
//schedlint:hotpath
func (s *Scheduler[T]) SubmitAllK(k int, vs []T) error {
	if len(vs) == 1 {
		// The singles path skips the staging — this matters because
		// SubmitAll with a 1-element buffer is exactly what an unbatched
		// producer loop degenerates to.
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
	if s.spill == nil {
		// Ungated: everything is admitted, staged and pushed as one batch
		// under the one injector lock.
		inj := s.nextInjector()
		inj.mu.Lock()
		envs := inj.stage(len(vs))
		for i, v := range vs {
			envs[i] = envelope[T]{v: v}
		}
		s.ds.PushK(inj.place, k, envs)
		inj.mu.Unlock()
		if out != nil {
			for i := range vs {
				out[i] = Admitted
			}
		}
		return len(vs), nil
	}
	if shedN := s.submitGated(k, vs, out); shedN > 0 {
		return len(vs) - shedN, ErrShed
	}
	return len(vs), nil
}

// gatedRun bounds how many tasks the gated batch path decides before it
// pushes, when the caller passes no out slice to hold the outcomes:
// they are held on the stack instead, a run at a time.
const gatedRun = 256

// submitGated is the Config.Backpressure half of SubmitAllKOutcomes and
// returns how many tasks it shed. One read of the gate state decides
// the whole batch, so a batch is internally consistent even while the
// controllers move the gates (the tenant window counters stay per-task
// sequence numbers). Each run's admission pass finishes before any
// injector lock is taken — park may flush the spillway, which locks
// injectors, and a Go mutex is not reentrant — and the run's admitted
// subset is then staged and pushed as one batch. A run is the whole
// batch when out is given, else at most gatedRun tasks.
//
//schedlint:hotpath
func (s *Scheduler[T]) submitGated(k int, vs []T, out []Outcome) (shedN int) {
	threshold, tenGated := s.bpGate.Load(), s.tenGated.Load()
	var scratch [gatedRun]Outcome
	for len(vs) > 0 {
		n, o := len(vs), out
		if out == nil {
			n = min(n, gatedRun)
			o = scratch[:n]
		}
		admitted := 0
		for i, v := range vs[:n] {
			o[i] = Admitted
			if ten, ok, byQuota := s.admit(v, threshold, tenGated); !ok {
				if o[i] = s.park(k, v, ten, byQuota); o[i] == Shed {
					shedN++
				}
				continue
			}
			admitted++
		}
		if admitted > 0 {
			s.admittedN.Add(int64(admitted))
			inj := s.nextInjector()
			inj.mu.Lock()
			envs, j := inj.stage(admitted), 0
			for i, v := range vs[:n] {
				if o[i] == Admitted {
					envs[j] = envelope[T]{v: v}
					j++
				}
			}
			s.ds.PushK(inj.place, k, envs)
			inj.mu.Unlock()
		}
		vs = vs[n:]
		if out != nil {
			out = out[n:]
		}
	}
	return shedN
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
		// Drain is a waiter, not a place: a task it finds a tick
		// earlier shortens no sojourn, so it keeps the short spin and
		// leaves the P to the workers and producers it waits for.
		backoff(fails, true)
	}
	return nil
}

// holdLen reports the quota hold's occupancy (see readmitSpill).
func (s *Scheduler[T]) holdLen() int {
	if s.tenants == 0 {
		return 0
	}
	s.readmitMu.Lock()
	defer s.readmitMu.Unlock()
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
		// Join the controller goroutine. The traces and
		// BackpressureState keep reporting the session's final values.
		close(s.ctrlStop)
		<-s.ctrlDone
		s.ctrlStop, s.ctrlDone = nil, nil
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
