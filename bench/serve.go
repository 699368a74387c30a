package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/xrand"
)

// serveSpec is the shape of one serve workload.
type serveSpec struct {
	// window > 0 selects the closed loop: that many tasks outstanding.
	window int
	// ratePerPlace selects the open loop: Poisson arrivals per second for
	// each worker place.
	ratePerPlace float64
	stick, batch int
	spin         int  // task body: iterations of a small arithmetic loop
	gated        bool // backpressure, tenants, metrics registry and recorder on
	sojournEvery int  // sojourn is measured on every n-th task id
	// meanLatency reports the mean sojourn as latency_us instead of the
	// median. Under overload the admission controller holds the queue at
	// the edge between empty and full, so the median swings with every
	// percent of capacity; the mean, set by the spillway's waits, does not.
	meanLatency bool
	repSeconds  float64
	warmTasks   int // length of the discarded warm-up rep, in tasks
}

// scaled shrinks the spec for the tests.
func (sp serveSpec) scaled(tiny bool) serveSpec {
	if tiny {
		sp.repSeconds = 0.05
		sp.warmTasks = 2048
	}
	return sp
}

// The serve-overload workload's tenants: weights 7:1:1:1, and the hot
// tenant 0 submits ten times what each cold tenant does.
var (
	tenantWeights = []int64{7, 1, 1, 1}
	tenantArrive  = []float64{10, 1, 1, 1}
)

const (
	protectedBand = prioRange / 8
	sojournBudget = 5 * time.Millisecond
	relaxK        = 512
	// traceEvery: a traced rep follows every n-th task id through its
	// queue wait and execution.
	traceEvery = 64
	// rankEvery: a traced rep measures rank error on every n-th execution.
	rankEvery = 8
)

// task is what the serve workloads submit.
type task struct {
	due    int64 // ns since the rep's epoch at which the task was due
	id     uint32
	prio   int32
	tenant uint8
}

func lessTask(a, b task) bool { return a.prio < b.prio }

// serveConfig is the scheduler configuration every serve run shares: the
// relaxed two-choice queue, one injector lane, numeric priorities.
func serveConfig(places, batch, stick int, seed uint64, execute func(repro.Ctx[task], task)) repro.SchedulerConfig[task] {
	return repro.SchedulerConfig[task]{
		Places:     places,
		Strategy:   repro.RelaxedSampleTwo,
		K:          relaxK,
		Less:       lessTask,
		Execute:    execute,
		Injectors:  1,
		Batch:      batch,
		Stickiness: stick,
		Priority:   func(t task) int64 { return int64(t.prio) },
		MaxPrio:    prioRange - 1,
		Seed:       seed,
	}
}

// The layers serve-overload switches on, in the order the ledger's ladder
// adds them to the bare serve path.
const (
	rungBare = iota
	rungBackpressure
	rungTenants
	rungMetrics
	rungCapture
	rungs
)

// addGates switches on the layers up to rung; the recorder writes to w.
func addGates(cfg *repro.SchedulerConfig[task], rung int, w io.Writer) (*repro.Metrics, *repro.Recorder) {
	var metrics *repro.Metrics
	var recorder *repro.Recorder
	if rung >= rungBackpressure {
		cfg.Backpressure, cfg.SojournBudget, cfg.ProtectedBand = true, sojournBudget, protectedBand
	}
	if rung >= rungTenants {
		cfg.TenantWeights = tenantWeights
		cfg.Tenant = func(t task) int { return int(t.tenant) }
	}
	if rung >= rungMetrics {
		metrics = repro.NewMetrics()
		cfg.Metrics = metrics
	}
	if rung >= rungCapture {
		recorder = repro.NewRecorder(w)
		cfg.Recorder = recorder
		cfg.Hash = func(t task) uint64 { return uint64(t.id) }
	}
	return metrics, recorder
}

// placeState is one worker place's private measurements, padded apart.
type placeState struct {
	executed  int64
	done      atomic.Int64 // closed loop: completions, read by the producer
	strays    int64        // executed ids the generator never issued
	tenExec   [4]int64
	sojourn   *repro.Histogram
	protected *repro.Histogram
	rankErr   *repro.Histogram
	queueWait *repro.Histogram
	execNs    int64
	execN     int64
	sink      uint64
	_         [64]byte
}

// serveInstance is a set-up serve workload.
type serveInstance struct {
	spec serveSpec
	sz   sizing
	seed uint64
	seen []uint8 // per task id: how often it executed
	shed []bool  // per task id: refused at admission
}

// countingDiscard counts the bytes the Recorder writes.
type countingDiscard struct{ n atomic.Int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return io.Discard.Write(p)
}

// setupServe sizes the oracle's tables and runs the discarded warm-up rep.
func setupServe(spec serveSpec, sz sizing, seed uint64) (instance, error) {
	in := &serveInstance{spec: spec, sz: sz, seed: seed}
	// The closed loop's rate is whatever the system sustains; leave room
	// for 8 M tasks/s per place, and stop a rep that gets there.
	perSec := 8e6 * float64(sz.ServePlaces)
	if spec.window == 0 {
		perSec = 1.05 * spec.ratePerPlace * float64(sz.ServePlaces)
	}
	capTasks := int(perSec*spec.repSeconds) + spec.warmTasks
	in.seen = make([]uint8, capTasks)
	if spec.gated {
		in.shed = make([]bool, capTasks)
	}
	if _, err := in.run(0, spec.warmTasks, nil); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *serveInstance) rep(n int, tr *tracer) (repResult, error) {
	return in.run(uint64(n)+1, 0, tr)
}

func (in *serveInstance) shape() ledgerShape {
	depth := in.spec.window
	if depth == 0 {
		depth = 16
	}
	return ledgerShape{places: in.sz.ServePlaces, servePlaces: in.sz.ServePlaces, depth: depth,
		batch: in.spec.batch, stick: in.spec.stick}
}

// serveRun is the state one rep's producer and Execute callback share.
type serveRun struct {
	in     *serveInstance
	spec   serveSpec
	epoch  time.Time
	rank   *repro.RankTracker
	places []placeState
	tr     *tracer
	// Traced reps: when each followed task entered Submit, and the span of
	// that call, indexed by id/traceEvery. Written by the producer before
	// the call, read by the worker that executes the task.
	subAt   []int64
	subSpan []int32
	off     int64 // tracer clock minus the rep's clock

	// Producer-side counts.
	issued      int
	submitCalls int64
	submitNs    int64
	submitErrs  int64
	shedN       int64
	late        *repro.Histogram
	gateSamples int64
	gateClosed  int64
	gateMoves   int64
	lastGate    int64
}

func (r *serveRun) now() int64 { return int64(time.Since(r.epoch)) }

// execute is the task body plus the benchmark's instruments.
func (r *serveRun) execute(ctx repro.Ctx[task], t task) {
	ps := &r.places[ctx.Place()]
	known := int(t.id) < len(r.in.seen)
	followed := r.tr != nil && known && t.id%traceEvery == 0
	var now int64
	if followed || t.id%uint32(r.spec.sojournEvery) == 0 {
		now = r.now()
		s := float64(now - t.due)
		ps.sojourn.Observe(s)
		if r.spec.gated && t.prio < protectedBand {
			ps.protected.Observe(s)
		}
	}
	if known {
		r.in.seen[t.id]++
	} else {
		ps.strays++
	}
	if r.rank != nil {
		if better, ok := r.rank.Executed(int64(t.prio)); ok {
			ps.rankErr.Observe(float64(better))
		}
	}
	if n := r.spec.spin; n > 0 {
		v := uint64(t.prio)
		for i := 0; i < n; i++ {
			v = v*6364136223846793005 + 1442695040888963407
		}
		ps.sink = v
	}
	ps.tenExec[t.tenant]++
	ps.executed++
	if r.spec.window > 0 {
		ps.done.Add(1) // closed loop: the producer waits on completions
	}
	if followed {
		end := r.now()
		slot := t.id / traceEvery
		ps.queueWait.Observe(float64(now - r.subAt[slot]))
		parent := int(r.subSpan[slot])
		r.tr.add("sched.queue_wait", r.subAt[slot]+r.off, now+r.off, parent, int64(t.id))
		r.tr.add("bench.execute", now+r.off, end+r.off, parent, int64(t.id))
		ps.execNs += end - now
		ps.execN++
	}
}

// submit hands one batch to the scheduler and books the outcomes.
func (r *serveRun) submit(s *repro.Scheduler[task], buf []task, out []repro.Outcome) {
	span := -1
	var t0 int64
	if r.tr != nil {
		for i := range buf {
			r.rank.Submitted(int64(buf[i].prio))
		}
		t0 = r.now()
		for i := range buf {
			if buf[i].id%traceEvery == 0 {
				span = r.tr.add("sched.submit", t0+r.off, 0, r.tr.root, int64(buf[i].id))
				r.subAt[buf[i].id/traceEvery] = t0
				r.subSpan[buf[i].id/traceEvery] = int32(span)
			}
		}
	}
	var err error
	if len(buf) == 1 && !r.spec.gated {
		err = s.SubmitK(relaxK, buf[0]) // the unbatched singles path
	} else {
		_, err = s.SubmitAllKOutcomes(relaxK, buf, out)
	}
	if r.tr != nil {
		r.submitNs += r.now() - t0
		r.tr.end(span)
	}
	r.submitCalls++
	switch {
	case err == nil:
	case errors.Is(err, repro.ErrShed):
		for i := range buf {
			if out[i] == repro.Shed {
				r.retract(buf[i])
				r.in.shed[buf[i].id] = true
				r.shedN++
			}
		}
	default:
		// Nothing of the batch was taken; the oracle reports it as lost.
		r.submitErrs += int64(len(buf))
		for i := range buf {
			r.retract(buf[i])
		}
	}
}

// retract takes a task that will not run out of the rank tracker's census.
func (r *serveRun) retract(t task) {
	if r.rank != nil {
		r.rank.Retract(int64(t.prio))
	}
}

// draw fills in a task's random fields.
func (r *serveRun) draw(rng *xrand.Rand, due int64) task {
	t := task{due: due, id: uint32(r.issued), prio: int32(rng.Uint64n(prioRange))}
	if r.spec.gated {
		x := rng.Float64() * 13 // Σ tenantArrive
		for t.tenant = 0; t.tenant < 3 && x >= tenantArrive[t.tenant]; t.tenant++ {
			x -= tenantArrive[t.tenant]
		}
	}
	r.issued++
	return t
}

// produceClosed keeps window tasks outstanding until the deadline (or,
// for the warm-up, until maxTasks were issued).
func (r *serveRun) produceClosed(s *repro.Scheduler[task], rng *xrand.Rand, deadline int64, maxTasks int) {
	b := r.spec.batch
	buf := make([]task, 0, b)
	out := make([]repro.Outcome, b)
	for r.issued+r.spec.window <= maxTasks {
		// One look at the completion counters buys a whole refill: reading
		// them before every batch would keep stealing the cache lines the
		// workers write on every task.
		var done int64
		for i := range r.places {
			done += r.places[i].done.Load()
		}
		room := r.spec.window - int(int64(r.issued)-done)
		if room < r.spec.window/2 {
			runtime.Gosched()
			continue
		}
		now := r.now()
		if now >= deadline {
			return
		}
		for ; room >= b; room -= b {
			buf = buf[:0]
			for i := 0; i < b; i++ {
				buf = append(buf, r.draw(rng, now))
			}
			r.submit(s, buf, out)
		}
	}
}

// produceOpen submits tasks on a Poisson schedule drawn from the seed,
// whether or not the system keeps up. Each task carries the instant it
// was due, so a generator stall shows up in the sojourn times of the
// tasks it delayed, and is reported as lateness besides.
func (r *serveRun) produceOpen(s *repro.Scheduler[task], rng *xrand.Rand, deadline int64, maxTasks int) {
	rate := r.spec.ratePerPlace * float64(r.in.sz.ServePlaces) / 1e9 // per ns
	b := r.spec.batch
	buf := make([]task, 0, b)
	out := make([]repro.Outcome, b)
	next := -math.Log(rng.Float64Open()) / rate
	nextGate := int64(0)
	for int64(next) < deadline && r.issued+b <= maxTasks {
		due := int64(next)
		now := r.now()
		for now < due {
			if d := due - now; d > int64(200*time.Microsecond) {
				time.Sleep(time.Duration(d) - 100*time.Microsecond)
			} else {
				runtime.Gosched()
			}
			now = r.now()
		}
		buf = buf[:0]
		for len(buf) < b && due <= now && due < deadline {
			r.late.Observe(float64(now - due))
			buf = append(buf, r.draw(rng, due))
			next += -math.Log(rng.Float64Open()) / rate
			due = int64(next)
		}
		r.submit(s, buf, out)
		if r.spec.gated && now >= nextGate {
			nextGate = now + int64(10*time.Millisecond)
			r.sampleGate(s)
		}
	}
}

// sampleGate reads the admission threshold in force, once per control
// window, to count how often it moved and how long it was closed.
func (r *serveRun) sampleGate(s *repro.Scheduler[task]) {
	th, ok := s.BackpressureState()
	if !ok {
		return
	}
	if r.gateSamples > 0 && th != r.lastGate {
		r.gateMoves++
	}
	r.lastGate = th
	r.gateSamples++
	if th < prioRange-1 {
		r.gateClosed++
	}
}

// run is one rep: build a scheduler, serve for the rep's length (or for
// maxTasks tasks when maxTasks > 0, the warm-up), drain, stop, check.
func (in *serveInstance) run(repSeq uint64, maxTasks int, tr *tracer) (repResult, error) {
	spec := in.spec
	res := newRepResult()
	r := &serveRun{in: in, spec: spec, tr: tr,
		places: make([]placeState, in.sz.ServePlaces), late: repro.NewHistogram()}
	for i := range r.places {
		ps := &r.places[i]
		ps.sojourn, ps.protected = repro.NewHistogram(), repro.NewHistogram()
		ps.rankErr, ps.queueWait = repro.NewHistogram(), repro.NewHistogram()
	}
	clear(in.seen)
	clear(in.shed)
	if tr != nil {
		r.subAt = make([]int64, len(in.seen)/traceEvery+1)
		r.subSpan = make([]int32, len(in.seen)/traceEvery+1)
	}
	var err error
	if tr != nil {
		// The live-priority census costs more per task than the scheduler
		// does, so only traced reps carry it.
		if r.rank, err = repro.NewRankTracker(prioRange, rankEvery); err != nil {
			return res, err
		}
	}
	seed := in.seed ^ (repSeq+1)*0x9e3779b97f4a7c15
	cfg := serveConfig(in.sz.ServePlaces, spec.batch, spec.stick, seed, r.execute)
	var metrics *repro.Metrics
	var recorder *repro.Recorder
	var captured countingDiscard
	if spec.gated {
		metrics, recorder = addGates(&cfg, rungCapture, &captured)
	}
	s, err := repro.NewScheduler(cfg)
	if err != nil {
		return res, err
	}

	u0 := readUsage()
	r.epoch = time.Now()
	root := -1
	if tr != nil {
		root = tr.root
		r.off = tr.now()
	}
	timed := func(name string, fn func() error) (float64, error) {
		t0 := time.Now()
		var sp int
		if tr != nil {
			sp = tr.begin(name, root, -1)
		}
		err := fn()
		if tr != nil {
			tr.end(sp)
		}
		return ms(time.Since(t0)), err
	}
	startMs, err := timed("sched.Start", s.Start)
	if err != nil {
		return res, err
	}
	deadline := int64(spec.repSeconds * float64(time.Second))
	limit := len(in.seen)
	if maxTasks > 0 {
		deadline, limit = math.MaxInt64, maxTasks
	}
	rng := xrand.New(seed)
	_, _ = timed("bench.produce", func() error {
		if spec.window > 0 {
			r.produceClosed(s, rng, deadline, limit)
		} else {
			r.produceOpen(s, rng, deadline, limit)
		}
		return nil
	})
	drainMs, err := timed("sched.Drain", s.Drain)
	if err != nil {
		return res, err
	}
	var st repro.RunStats
	stopMs, err := timed("sched.Stop", func() error {
		var err error
		st, err = s.Stop()
		return err
	})
	if err != nil {
		return res, err
	}
	u1 := readUsage()
	cpu := u1.cpu - u0.cpu

	tot := r.totals()
	drift := r.check(&res, repSeq, tot, st, metrics)
	if maxTasks > 0 {
		return res, nil // warm-up: checked, not measured
	}
	if tot.executed == 0 || tot.sojourn.N() == 0 {
		return res, fmt.Errorf("rep %d executed %d tasks and timed %d", repSeq, tot.executed, tot.sojourn.N())
	}

	ex := float64(tot.executed)
	res.e2e["tasks_per_s"] = ex / st.Elapsed.Seconds()
	res.e2e["cpu_ns_per_task"] = float64(cpu) / ex
	res.e2e["latency_us"] = tot.sojourn.Quantile(0.5) / 1e3
	if spec.meanLatency {
		res.e2e["latency_us"] = tot.sojourn.Mean() / 1e3
	}
	res.samples["latency_us"] = int64(tot.sojourn.N())
	res.e2e["work_ratio"] = 1
	res.e2e["heap_peak_mb"] = float64(u1.heapInuse) / (1 << 20)
	fairMin := 1.0
	if spec.gated {
		// A cold tenant's goodput against its weight's share of all goodput.
		for t := 1; t < len(tenantWeights); t++ {
			share := float64(tot.tenExec[t]) * 10 / (ex * float64(tenantWeights[t])) // Σ weights = 10
			fairMin = math.Min(fairMin, share)
		}
	}
	res.e2e["fair_min_share"] = fairMin
	if tr == nil {
		return res, nil
	}

	l := res.layer
	l["sched.start_ms"], l["sched.drain_ms"], l["sched.stop_ms"] = startMs, drainMs, stopMs
	l["sched.allocs_per_task"] = float64(u1.mallocs-u0.mallocs) / ex
	l["sched.bytes_per_task"] = float64(u1.bytes-u0.bytes) / ex
	l["runtime.gc_ns_per_task"] = float64(u1.gcCPU-u0.gcCPU) / ex
	l["obs.counter_drift"] = drift
	r.layerMetrics(&res, tot, st)
	if spec.gated {
		var gated float64
		windows := s.FairTrace()
		for _, w := range windows {
			if w.State.Gated {
				gated++
			}
		}
		l["fair.gated_window_share"] = ratio(gated, float64(len(windows)))
		l["obs.capture_bytes_per_task"] = float64(captured.n.Load()) / float64(r.issued)
		l["obs.capture_dropped"] = float64(recorder.Dropped())
	}
	return res, nil
}

// serveTotals is the places' private measurements merged after Stop.
type serveTotals struct {
	executed, strays   int64
	tenExec            [4]int64
	sojourn, protected *repro.Histogram
	rankErr, queueWait *repro.Histogram
	execNs, execN      int64
}

func (r *serveRun) totals() serveTotals {
	tot := serveTotals{sojourn: repro.NewHistogram(), protected: repro.NewHistogram(),
		rankErr: repro.NewHistogram(), queueWait: repro.NewHistogram()}
	for i := range r.places {
		ps := &r.places[i]
		tot.executed += ps.executed
		tot.strays += ps.strays
		for t := range tot.tenExec {
			tot.tenExec[t] += ps.tenExec[t]
		}
		tot.sojourn.Merge(ps.sojourn)
		tot.protected.Merge(ps.protected)
		tot.rankErr.Merge(ps.rankErr)
		tot.queueWait.Merge(ps.queueWait)
		tot.execNs += ps.execNs
		tot.execN += ps.execN
	}
	return tot
}

// check is the oracle: every issued task executed exactly once or was
// refused, and the scheduler's own counts (and, when a registry is
// attached, its exported counter) agree with the benchmark's. It books
// violations in res and returns the exported counter's drift.
func (r *serveRun) check(res *repResult, repSeq uint64, tot serveTotals, st repro.RunStats, metrics *repro.Metrics) float64 {
	var lost, dup, ghost int64
	for id := 0; id < r.issued; id++ {
		n, refused := r.in.seen[id], r.in.shed != nil && r.in.shed[id]
		switch {
		case refused && n > 0:
			ghost++
		case !refused && n == 0:
			lost++
		case n > 1:
			dup++
		}
	}
	res.attempted = int64(r.issued)
	res.failed = lost + dup + ghost + tot.strays
	if res.failed > 0 {
		res.notes = append(res.notes, fmt.Sprintf("rep %d: %d lost (%d of them refused with an error), %d duplicated, %d executed though shed, %d never issued",
			repSeq, lost, r.submitErrs, dup, ghost, tot.strays))
	}
	accepted := int64(r.issued) - r.shedN - r.submitErrs
	if tot.executed != accepted || st.Executed != tot.executed || st.DS.Shed != r.shedN {
		res.failed++
		res.notes = append(res.notes, fmt.Sprintf("rep %d: conservation: issued %d = executed %d + shed %d? scheduler says executed %d, shed %d",
			repSeq, r.issued, tot.executed, r.shedN, st.Executed, st.DS.Shed))
	}
	if metrics == nil {
		return 0
	}
	drift := 0.0
	for _, p := range metrics.Snapshot() {
		if p.Name == "sched_tasks_executed_total" {
			drift = math.Abs(p.Value - float64(tot.executed))
		}
	}
	if drift != 0 {
		res.failed++
		res.notes = append(res.notes, fmt.Sprintf("rep %d: sched_tasks_executed_total is off by %g", repSeq, drift))
	}
	return drift
}

// layerMetrics fills in what a traced rep learned from its spans and
// from the scheduler's public counters, and how often one executed task
// used each priced ledger row.
func (r *serveRun) layerMetrics(res *repResult, tot serveTotals, st repro.RunStats) {
	l, ds := res.layer, st.DS
	ex, issued := float64(tot.executed), float64(r.issued)
	p99 := func(name string, h *repro.Histogram) {
		l[name] = h.Quantile(0.99) / 1e3
		res.samples[name] = int64(h.N()) / 100 // samples beyond the percentile
	}
	p99("sched.sojourn_p99_us", tot.sojourn)
	p99("sched.queue_wait_p99_us", tot.queueWait)
	p99("backpressure.protected_p99_us", tot.protected)
	p99("bench.gen_late_p99_us", r.late)
	l["relaxed.rank_err_p99"] = tot.rankErr.Quantile(0.99)
	res.samples["relaxed.rank_err_p99"] = int64(tot.rankErr.N()) / 100
	l["sched.queue_wait_p50_us"] = tot.queueWait.Quantile(0.5) / 1e3
	l["sched.sojourn_p50_us"] = tot.sojourn.Quantile(0.5) / 1e3
	l["sched.failed_share"] = (float64(r.shedN) + float64(res.failed)) / issued
	l["sched.submit_ns_per_task"] = float64(r.submitNs) / issued
	l["sched.submit_calls"] = float64(r.submitCalls)
	// What happens inside Execute (task body and the benchmark's
	// instruments) is timed on the followed tasks and joins the ledger as
	// a row of its own.
	execPer := ratio(float64(tot.execNs), float64(tot.execN))
	l["sched.execute_ns_per_task"] = execPer
	l["sched.worker_busy_share"] = execPer * ex / (float64(st.Elapsed) * float64(len(r.places)))
	l["sched.pop_failures_per_task"] = float64(ds.PopFailures) / ex
	l["sched.spawned_per_executed"] = float64(st.Spawned) / ex
	l["sched.eliminated_share"] = ratio(float64(st.Eliminated), float64(st.Spawned))

	l["relaxed.batch_push_size"], l["relaxed.batch_pop_size"] = 1, 1
	if ds.BatchPushes > 0 {
		l["relaxed.batch_push_size"] = float64(ds.Pushes) / float64(ds.BatchPushes)
	}
	if ds.BatchPops > 0 {
		l["relaxed.batch_pop_size"] = float64(ds.Pops) / float64(ds.BatchPops)
	}
	l["relaxed.pop_retry_share"] = ratio(float64(ds.PopRetries), float64(ds.Pops))
	l["relaxed.restick_share"] = ratio(float64(ds.Resticks), float64(ds.Pops+ds.Pushes))

	res.ops = ledgerOps{"sched.bare_ns": 1}
	if !r.spec.gated {
		return
	}
	l["backpressure.shed_share"] = float64(ds.Shed) / issued
	l["backpressure.deferred_share"] = float64(ds.Deferred) / issued
	l["backpressure.readmitted_share"] = ratio(float64(ds.Readmitted), float64(ds.Deferred))
	l["backpressure.threshold_moves"] = float64(r.gateMoves)
	l["backpressure.gated_window_share"] = ratio(float64(r.gateClosed), float64(r.gateSamples))
	l["fair.tenant_shed_share"] = float64(ds.TenantShed) / issued
	l["fair.hot_share"] = float64(tot.tenExec[0]) / ex
	// Every offered task passes the gates and the hooks, executed or not.
	offered := issued / ex
	for _, row := range []string{"backpressure.gate_ns", "fair.gate_ns", "obs.metrics_ns", "obs.capture_ns"} {
		res.ops[row] = offered
	}
}
