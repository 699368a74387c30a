package sched

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// serveMetrics holds the instruments the scheduler publishes to
// Config.Metrics plus the previous window's cumulative snapshot the
// counters are differenced against. All publication happens in obsTick
// on the controller goroutine, once per window — the per-task hot path
// never touches this struct. The full series contract is documented in
// docs/METRICS.md.
type serveMetrics struct {
	// Counters (monotone; published as per-window deltas).
	executed   obs.Counter
	submitted  obs.Counter
	shed       obs.Counter
	deferred   obs.Counter
	readmitted obs.Counter
	handoffs   obs.Counter
	pops       obs.Counter
	popFail    obs.Counter
	batchPops  obs.Counter
	steals     obs.Counter
	laneCont   obs.Counter
	resticks   obs.Counter

	// Gauges (instantaneous, set every window).
	pending     obs.Gauge
	tasksPerSec obs.Gauge
	threshold   obs.Gauge // nil without Backpressure
	spillOcc    obs.Gauge // nil without Backpressure
	rankP99     obs.Gauge // nil without RankSignal

	// Per-tenant series (nil without TenantWeights), indexed by tenant,
	// plus the gate flag gauge.
	tenSeries []tenantSeries
	fairGated obs.Gauge

	prev   obsCum
	lastAt time.Duration
}

// tenantSeries is one tenant's registered instruments plus the
// previous window's cumulative snapshot its counters are differenced
// against.
type tenantSeries struct {
	arrived, admitted, deferred, shed, readmitted, executed obs.Counter
	quota, floor, pending                                   obs.Gauge
	prev                                                    TenantCounters
}

// obsCum is one snapshot of every cumulative counter the metric
// exporter differences into window deltas.
type obsCum struct {
	executed, spawned, shed, deferred, readmitted  int64
	pops, popFailures, batchPops, steals, resticks int64
	laneCont, handoffs                             int64
}

// newServeMetrics registers the scheduler's series on the sink. Which
// series exist depends on the configuration: admission series need
// Backpressure, the rank-error gauge needs a RankSignal. Counters
// are registered unconditionally — a shed counter pinned at 0 is
// information, a missing one is a scrape error.
func (s *Scheduler[T]) newServeMetrics(sink obs.Sink) *serveMetrics {
	m := &serveMetrics{
		executed:    sink.Counter(obs.Desc{Name: "sched_tasks_executed_total", Help: "tasks run by Execute", Unit: "tasks"}),
		submitted:   sink.Counter(obs.Desc{Name: "sched_tasks_submitted_total", Help: "tasks pushed (submissions and spawns)", Unit: "tasks"}),
		shed:        sink.Counter(obs.Desc{Name: "sched_tasks_shed_total", Help: "tasks rejected by the admission gate", Unit: "tasks"}),
		deferred:    sink.Counter(obs.Desc{Name: "sched_tasks_deferred_total", Help: "tasks parked in the spillway", Unit: "tasks"}),
		readmitted:  sink.Counter(obs.Desc{Name: "sched_tasks_readmitted_total", Help: "spilled tasks re-submitted", Unit: "tasks"}),
		handoffs:    sink.Counter(obs.Desc{Name: "sched_handoffs_total", Help: "submitted tasks handed straight to an idle place, bypassing the structure", Unit: "tasks"}),
		pops:        sink.Counter(obs.Desc{Name: "sched_pops_total", Help: "successful pop episodes", Unit: "ops"}),
		popFail:     sink.Counter(obs.Desc{Name: "sched_pop_failures_total", Help: "failed pop episodes", Unit: "ops"}),
		batchPops:   sink.Counter(obs.Desc{Name: "sched_batch_pops_total", Help: "multi-task pop episodes", Unit: "ops"}),
		steals:      sink.Counter(obs.Desc{Name: "sched_steals_total", Help: "steal sweeps attempted", Unit: "ops"}),
		laneCont:    sink.Counter(obs.Desc{Name: "sched_lane_contention_total", Help: "failed lane try-locks", Unit: "ops"}),
		resticks:    sink.Counter(obs.Desc{Name: "sched_resticks_total", Help: "sticky lane re-selections", Unit: "ops"}),
		pending:     sink.Gauge(obs.Desc{Name: "sched_pending_tasks", Help: "outstanding tasks (spillway included)", Unit: "tasks"}),
		tasksPerSec: sink.Gauge(obs.Desc{Name: "sched_tasks_per_sec", Help: "execution rate over the last window", Unit: "tasks/s"}),
	}
	if s.cfg.Backpressure {
		m.threshold = sink.Gauge(obs.Desc{Name: "sched_admission_threshold", Help: "priority admission threshold in force (BackpressureTrace state)"})
		m.spillOcc = sink.Gauge(obs.Desc{Name: "sched_spill_occupancy", Help: "deferred tasks parked in the spillway", Unit: "tasks"})
	}
	if s.cfg.RankSignal != nil {
		m.rankP99 = sink.Gauge(obs.Desc{Name: "sched_rank_error_p99", Help: "windowed pop rank-error p99 from RankSignal (-1: no signal)", Unit: "tasks"})
	}
	if s.tenants > 0 {
		m.fairGated = sink.Gauge(obs.Desc{Name: "sched_fair_gated", Help: "tenant-fairness gate engaged (1) or open (0)"})
		m.tenSeries = make([]tenantSeries, s.tenants)
		for t := 0; t < s.tenants; t++ {
			lbl := []obs.Label{{Key: "tenant", Value: strconv.Itoa(t)}}
			ts := &m.tenSeries[t]
			ts.arrived = sink.Counter(obs.Desc{Name: "sched_tenant_arrived_total", Help: "per-tenant submissions offered (before any gate)", Unit: "tasks", Labels: lbl})
			ts.admitted = sink.Counter(obs.Desc{Name: "sched_tenant_admitted_total", Help: "per-tenant tasks accepted past both gates", Unit: "tasks", Labels: lbl})
			ts.deferred = sink.Counter(obs.Desc{Name: "sched_tenant_deferred_total", Help: "per-tenant tasks parked in the spillway", Unit: "tasks", Labels: lbl})
			ts.shed = sink.Counter(obs.Desc{Name: "sched_tenant_shed_total", Help: "per-tenant tasks rejected outright", Unit: "tasks", Labels: lbl})
			ts.readmitted = sink.Counter(obs.Desc{Name: "sched_tenant_readmitted_total", Help: "per-tenant spilled tasks re-submitted", Unit: "tasks", Labels: lbl})
			ts.executed = sink.Counter(obs.Desc{Name: "sched_tenant_executed_total", Help: "per-tenant tasks run by Execute", Unit: "tasks", Labels: lbl})
			ts.quota = sink.Gauge(obs.Desc{Name: "sched_tenant_quota", Help: "per-tenant window admission quota in force (-1: gate open)", Unit: "tasks", Labels: lbl})
			ts.floor = sink.Gauge(obs.Desc{Name: "sched_tenant_floor", Help: "per-tenant unconditional admission floor in force (-1: gate open)", Unit: "tasks", Labels: lbl})
			ts.pending = sink.Gauge(obs.Desc{Name: "sched_tenant_pending", Help: "per-tenant outstanding tasks (spillway included)", Unit: "tasks", Labels: lbl})
		}
	}
	return m
}

// obsCumNow snapshots every cumulative counter the exporter publishes:
// the structure's counters plus the scheduler-level admission atomics.
func (s *Scheduler[T]) obsCumNow() obsCum {
	st, now := s.ds.Stats(), s.scan(nil)
	c := obsCum{
		executed:    now.executed,
		spawned:     now.injected + now.spawned,
		shed:        s.shed.Load(),
		deferred:    s.deferredN.Load(),
		readmitted:  s.readmitted.Load(),
		handoffs:    s.handoffs.Load(),
		pops:        st.Pops,
		popFailures: st.PopFailures,
		batchPops:   st.BatchPops,
		steals:      st.Steals,
		resticks:    st.Resticks,
	}
	if s.rlx != nil {
		c.laneCont = s.rlx.ContentionTotal()
	}
	return c
}

// primeMetrics baselines the exporter at session start: counters
// published from now on cover this session's activity, not all of
// history.
func (s *Scheduler[T]) primeMetrics() {
	m := s.metrics
	m.prev = s.obsCumNow()
	m.lastAt = 0
	for t := range m.tenSeries {
		m.tenSeries[t].prev = s.ten[t].counters()
	}
}

// obsTick publishes one window: counter deltas since the previous
// window, instantaneous gauges, and the controller states in force.
// Runs on the controller goroutine; allocation-free after registration.
func (s *Scheduler[T]) obsTick(at time.Duration) {
	m := s.metrics
	cur := s.obsCumNow()
	m.executed.Add(cur.executed - m.prev.executed)
	m.submitted.Add(cur.spawned - m.prev.spawned)
	m.shed.Add(cur.shed - m.prev.shed)
	m.deferred.Add(cur.deferred - m.prev.deferred)
	m.readmitted.Add(cur.readmitted - m.prev.readmitted)
	m.handoffs.Add(cur.handoffs - m.prev.handoffs)
	m.pops.Add(cur.pops - m.prev.pops)
	m.popFail.Add(cur.popFailures - m.prev.popFailures)
	m.batchPops.Add(cur.batchPops - m.prev.batchPops)
	m.steals.Add(cur.steals - m.prev.steals)
	m.laneCont.Add(cur.laneCont - m.prev.laneCont)
	m.resticks.Add(cur.resticks - m.prev.resticks)

	m.pending.Set(float64(s.Pending()))
	if dt := (at - m.lastAt).Seconds(); dt > 0 {
		m.tasksPerSec.Set(float64(cur.executed-m.prev.executed) / dt)
	}
	if m.threshold != nil {
		m.threshold.Set(float64(s.bpGate.Load()))
		m.spillOcc.Set(float64(s.spill.Len()))
	}
	if m.rankP99 != nil {
		m.rankP99.Set(s.cfg.RankSignal())
	}
	if m.tenSeries != nil {
		fst := s.fairCtl.State()
		gated := 0.0
		if fst.Gated {
			gated = 1
		}
		m.fairGated.Set(gated)
		for t := range m.tenSeries {
			ts := &m.tenSeries[t]
			tc := s.ten[t].counters()
			ts.arrived.Add(tc.Arrived - ts.prev.Arrived)
			ts.admitted.Add(tc.Admitted - ts.prev.Admitted)
			ts.deferred.Add(tc.Deferred - ts.prev.Deferred)
			ts.shed.Add(tc.Shed - ts.prev.Shed)
			ts.readmitted.Add(tc.Readmitted - ts.prev.Readmitted)
			ts.executed.Add(tc.Executed - ts.prev.Executed)
			if fst.Gated {
				ts.quota.Set(float64(fst.Quotas[t]))
				ts.floor.Set(float64(fst.Floors[t]))
			} else {
				ts.quota.Set(-1)
				ts.floor.Set(-1)
			}
			ts.pending.Set(float64(tc.Pending))
			ts.prev = tc
		}
	}
	m.prev = cur
	m.lastAt = at
}

// recBegin writes the capture header and the controller config records
// for this session. Called from Start, after the session's controllers
// are constructed and before the loop runs, so the recorded seeds are
// the states actually in force at the first window.
func (s *Scheduler[T]) recBegin(rec *obs.Recorder) {
	rec.Begin(obs.Header{
		Source: "sched",
		Meta: map[string]string{
			"strategy":  s.cfg.Strategy.String(),
			"places":    strconv.Itoa(s.cfg.Places),
			"injectors": strconv.Itoa(s.cfg.Injectors),
			"interval":  s.cfg.AdaptInterval.String(),
		},
	})
	if s.cfg.Backpressure {
		rec.ConfigBackpressure(s.bpCfg, s.bpCtl.State())
	}
	if s.tenants > 0 {
		rec.ConfigFair(s.fairCfg, s.fairCtl.State())
	}
}

// recArrival records one submission envelope (pre-gate) when a
// recorder is configured. One branch when off; ring-write only when
// on — either way the submit path stays allocation-free.
func (s *Scheduler[T]) recArrival(k int, v T) {
	rec := s.cfg.Recorder
	if rec == nil {
		return
	}
	var prio int64
	if s.cfg.Priority != nil {
		prio = s.cfg.Priority(v)
	}
	var h uint64
	if s.cfg.Hash != nil {
		h = s.cfg.Hash(v)
	}
	rec.Arrival(int64(time.Since(s.serveT0)), prio, k, h)
}

// recArrivalBatch is recArrival for the batch submit paths: one
// timestamp read for the whole batch, one ring write per task.
func (s *Scheduler[T]) recArrivalBatch(k int, vs []T) {
	rec := s.cfg.Recorder
	if rec == nil {
		return
	}
	at := int64(time.Since(s.serveT0))
	for _, v := range vs {
		var prio int64
		if s.cfg.Priority != nil {
			prio = s.cfg.Priority(v)
		}
		var h uint64
		if s.cfg.Hash != nil {
			h = s.cfg.Hash(v)
		}
		rec.Arrival(at, prio, k, h)
	}
}
