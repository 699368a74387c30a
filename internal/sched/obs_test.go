package sched

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ctl"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// obsPoint fetches one series from a registry snapshot by family name,
// failing the test when it is absent.
func obsPoint(t *testing.T, reg *obs.Registry, name string) obs.Point {
	t.Helper()
	for _, p := range reg.Snapshot() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("series %q not registered", name)
	return obs.Point{}
}

// TestServeMetricsEndToEnd runs real overload traffic through a
// metrics-wired scheduler and checks the exported counters against the
// scheduler's own Stop accounting: the final controller-goroutine
// publish must close the books exactly — executed, shed, deferred and
// readmitted all agree with RunStats, and the admission series only
// exist because Backpressure is on.
func TestServeMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	var slow atomic.Bool
	slow.Store(true)
	cfg := bpConfig(func(ctx *Ctx[int64], v int64) {
		if slow.Load() {
			time.Sleep(20 * time.Microsecond)
		}
	})
	cfg.Metrics = reg
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 4, 4000
	var wg sync.WaitGroup
	var sheds atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := xrand.New(uint64(p)*131 + 7)
			for i := 0; i < perProducer; i++ {
				prio := int64(r.Uint64n(uint64(cfg.MaxPrio + 1)))
				switch err := s.Submit(prio); {
				case err == nil:
				case errors.Is(err, ErrShed):
					sheds.Add(1)
				default:
					t.Errorf("Submit: %v", err)
				}
				if i%500 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(p)
	}
	wg.Wait()
	slow.Store(false)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stop()
	if err != nil {
		t.Fatal(err)
	}

	if got := obsPoint(t, reg, "sched_tasks_executed_total").Value; got != float64(st.Executed) {
		t.Errorf("executed counter = %v, RunStats.Executed = %d", got, st.Executed)
	}
	if got := obsPoint(t, reg, "sched_tasks_shed_total").Value; got != float64(st.DS.Shed) {
		t.Errorf("shed counter = %v, Stats.Shed = %d", got, st.DS.Shed)
	}
	if got := obsPoint(t, reg, "sched_tasks_deferred_total").Value; got != float64(st.DS.Deferred) {
		t.Errorf("deferred counter = %v, Stats.Deferred = %d", got, st.DS.Deferred)
	}
	if got := obsPoint(t, reg, "sched_tasks_readmitted_total").Value; got != float64(st.DS.Readmitted) {
		t.Errorf("readmitted counter = %v, Stats.Readmitted = %d", got, st.DS.Readmitted)
	}
	if got := obsPoint(t, reg, "sched_tasks_submitted_total").Value; got != float64(st.Spawned) {
		t.Errorf("submitted counter = %v, RunStats.Spawned = %d", got, st.Spawned)
	}
	if sheds.Load() > 0 {
		if got := obsPoint(t, reg, "sched_tasks_shed_total").Value; got == 0 {
			t.Error("producers saw ErrShed but the shed counter is 0")
		}
	}
	if got := obsPoint(t, reg, "sched_pending_tasks").Value; got != 0 {
		t.Errorf("pending gauge after Drain+Stop = %v, want 0", got)
	}
	// Admission gauges exist because Backpressure is on. The final
	// publish runs before Stop re-opens the gate, so the gauge holds the
	// session's last in-force threshold.
	if p := obsPoint(t, reg, "sched_admission_threshold"); p.Value <= 0 || p.Value > float64(cfg.MaxPrio) {
		t.Errorf("threshold gauge = %v, want within (0, MaxPrio]", p.Value)
	}
	obsPoint(t, reg, "sched_spill_occupancy")
	obsPoint(t, reg, "sched_pops_total")
}

// TestServeObsTickAllocationFree pins the exporter's core property: a
// window publish allocates nothing, on the fullest configuration the
// scheduler supports (admission control + adaptive tuning + grouped
// lanes + rank signal). The per-task hot path never touches the
// exporter at all, so zero allocations per window is zero allocations
// per task at any throughput.
func TestServeObsTickAllocationFree(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := bpConfig(func(ctx *Ctx[int64], v int64) {})
	cfg.Places = 4
	cfg.Strategy = Relaxed
	cfg.LaneGroups = 2
	cfg.Adaptive = true
	cfg.Metrics = reg
	cfg.RankSignal = func() float64 { return 42 }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2000; i++ {
		if err := s.Submit(i % (cfg.MaxPrio + 1)); err != nil && !errors.Is(err, ErrShed) {
			t.Fatal(err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	// The controller goroutine has joined: obsTick can run on the test
	// goroutine without racing its real caller.
	at := time.Since(s.serveT0)
	allocs := testing.AllocsPerRun(200, func() {
		at += time.Millisecond
		s.obsTick(at, 42)
	})
	if allocs != 0 {
		t.Errorf("obsTick allocs = %v, want 0", allocs)
	}
}

// TestServeRecorderArrivalAllocationFree pins the capture path's
// submit-side cost: recording an arrival envelope is a ring write, no
// allocation, so -capture does not perturb the workload it records.
func TestServeRecorderArrivalAllocationFree(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.NewRecorderSize(&buf, 1<<14)
	cfg := bpConfig(func(ctx *Ctx[int64], v int64) {})
	cfg.Recorder = rec
	cfg.Hash = func(v int64) uint64 { return uint64(v) * 0x9e3779b97f4a7c15 }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.recArrival(4, 123)
	})
	if allocs != 0 {
		t.Errorf("recArrival allocs = %v, want 0", allocs)
	}
}

// TestServeCaptureReplayRoundTrip is the incident-replay contract on
// real traffic: capture a bursty-overload serve session, read the
// JSONL back, and re-run the admission controller's decision chain
// from the captured seed over the captured windows. The replayed
// BackpressureTrace must be bit-identical to both the capture and the
// live scheduler's own trace — divergence means the capture schema,
// the recorded config, or backpressure.Decide changed.
func TestServeCaptureReplayRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	var slow atomic.Bool
	slow.Store(true)
	cfg := bpConfig(func(ctx *Ctx[int64], v int64) {
		if slow.Load() {
			time.Sleep(20 * time.Microsecond)
		}
	})
	cfg.Recorder = rec
	cfg.Hash = func(v int64) uint64 { return uint64(v) }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	// Bursty flood: on-periods of saturating submissions with gaps in
	// between, long enough to span many 2ms controller windows.
	const bursts, perBurst = 8, 3000
	var attempts, sheds int64
	r := xrand.New(99)
	for b := 0; b < bursts; b++ {
		for i := 0; i < perBurst; i++ {
			prio := int64(r.Uint64n(uint64(cfg.MaxPrio + 1)))
			attempts++
			switch err := s.Submit(prio); {
			case err == nil:
			case errors.Is(err, ErrShed):
				sheds++
			default:
				t.Fatalf("Submit: %v", err)
			}
		}
		time.Sleep(4 * time.Millisecond)
	}
	slow.Store(false)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("recorder error: %v", err)
	}
	live := s.BackpressureTrace()
	if len(live) == 0 {
		t.Fatal("no live backpressure trace")
	}

	c, err := obs.ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c.BPConfig == nil {
		t.Fatal("capture has no backpressure config record")
	}
	if c.End == nil {
		t.Fatal("capture was not finished cleanly")
	}
	if c.End.Dropped != 0 {
		t.Fatalf("capture dropped %d arrivals", c.End.Dropped)
	}
	if int64(len(c.Arrivals)) != attempts {
		t.Fatalf("capture has %d arrivals, producers submitted %d", len(c.Arrivals), attempts)
	}
	if sheds > 0 {
		// Arrivals are recorded pre-gate: shed submissions appear too.
		tight := false
		for _, w := range c.BP {
			if w.State.Threshold < cfg.MaxPrio {
				tight = true
				break
			}
		}
		if !tight {
			t.Error("producers saw sheds but no captured window tightened the threshold")
		}
	}

	// The captured trace is the live trace, record for record.
	if diffs := ctl.Diff("bp", c.BP, live); len(diffs) != 0 {
		t.Fatalf("captured trace diverges from live trace:\n%s", diffs[0])
	}
	// Replaying the decision chain from the captured seed reproduces it
	// bit-identically.
	vs, err := c.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Controller != "backpressure" || vs[0].Windows != len(live) {
		t.Fatalf("replay verdicts = %+v, want one backpressure verdict over %d windows", vs, len(live))
	}
	if !vs[0].Identical {
		t.Fatalf("replay diverges from capture (%d windows differ), first:\n%s", len(vs[0].Diffs), vs[0].Diffs[0])
	}
}

// TestServeObsIntervalValidation pins the config rule: an explicit
// sub-millisecond controller window is rejected when only observability
// asked for the controller goroutine.
func TestServeObsIntervalValidation(t *testing.T) {
	cfg := Config[int64]{
		Places:        2,
		Less:          intLess,
		Execute:       func(ctx *Ctx[int64], v int64) {},
		Injectors:     1,
		Metrics:       obs.NewRegistry(),
		AdaptInterval: 100 * time.Microsecond,
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("sub-ms AdaptInterval accepted for a metrics-only session")
	}
	cfg.AdaptInterval = 0
	if _, err := New(cfg); err != nil {
		t.Fatalf("default interval rejected: %v", err)
	}
}
