package sched

import (
	"bytes"
	"errors"
	"strings"
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
	if got := obsPoint(t, reg, "sched_handoffs_total").Value; got != float64(st.DS.Handoffs) {
		t.Errorf("handoffs counter = %v, Stats.Handoffs = %d", got, st.DS.Handoffs)
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
// scheduler supports (admission control + rank signal). The per-task
// hot path never touches the exporter at all, so zero allocations per
// window is zero allocations per task at any throughput.
func TestServeObsTickAllocationFree(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := bpConfig(func(ctx *Ctx[int64], v int64) {})
	cfg.Places = 4
	cfg.Strategy = Relaxed
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
		s.obsTick(at)
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

// TestServeRecorderServesOneSession: Config.Recorder captures one
// Start/Stop. The first session's capture reads back sealed and replays
// bit-identically; a second Start on the same scheduler fails before
// anything is launched or written — it used to append a second header
// and config block after the end record, and a reader then re-decided
// session one's windows from session two's seeds — and leaves the
// scheduler idle, so Run still works. Without a recorder a scheduler
// restarts as before.
func TestServeRecorderServesOneSession(t *testing.T) {
	session := func(s *Scheduler[int64]) {
		t.Helper()
		for i := int64(0); i < 4000; i++ {
			if err := s.Submit(i * 257 % (1 << 20)); err != nil && !errors.Is(err, ErrShed) {
				t.Fatalf("Submit: %v", err)
			}
		}
		// Stay open until the controller has closed a couple of its 2ms
		// windows, so the capture has decisions to replay.
		for deadline := time.Now().Add(10 * time.Second); len(s.BackpressureTrace()) < 2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Stop(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	cfg := bpConfig(func(ctx *Ctx[int64], v int64) {})
	cfg.Recorder = rec
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	session(s)
	if err := rec.Err(); err != nil {
		t.Fatalf("recorder error: %v", err)
	}
	first := buf.String()

	if err := s.Start(); err == nil {
		t.Error("second Start on a scheduler whose Recorder is sealed succeeded")
		session(s)
	} else if !strings.Contains(err.Error(), "Recorder") {
		t.Errorf("second Start failed without naming the Recorder: %v", err)
	}
	if s.Serving() {
		t.Error("scheduler reports Serving after the refused Start")
	}
	if _, err := s.Run(1); err != nil {
		t.Errorf("Run after the refused Start: %v", err)
	}
	if got := buf.String(); got != first {
		t.Errorf("capture grew by %d bytes after its end record; it now holds %d hdr lines",
			len(got)-len(first), strings.Count(got, `"t":"hdr"`))
	}

	c, err := obs.ReadCapture(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if c.End == nil {
		t.Fatal("first session's capture is not sealed")
	}
	if diffs := ctl.Diff("bp", c.BP, s.BackpressureTrace()); len(c.BP) == 0 || len(diffs) != 0 {
		t.Fatalf("capture holds %d windows, %d differ from the live trace", len(c.BP), len(diffs))
	}
	vs, err := c.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !vs[0].Identical {
		t.Fatalf("replay verdicts = %+v, want one identical backpressure verdict", vs)
	}

	cfg.Recorder = nil
	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := plain.Start(); err != nil {
			t.Fatalf("session %d without a recorder: %v", i+1, err)
		}
		session(plain)
	}
}

// TestServeObsIntervalValidation pins the config rule: New resolves
// and checks the one control window for every configuration, so an
// explicit sub-millisecond AdaptInterval is rejected by name whichever
// consumer — a controller, the metrics window, or none — would tick on
// it, and the zero value selects the default everywhere.
func TestServeObsIntervalValidation(t *testing.T) {
	base := Config[int64]{
		Places:    2,
		Strategy:  RelaxedSampleTwo,
		Less:      intLess,
		Execute:   func(ctx *Ctx[int64], v int64) {},
		Injectors: 1,
	}
	gated := func(c *Config[int64]) {
		c.Backpressure = true
		c.Priority = func(v int64) int64 { return v }
		c.MaxPrio = 1 << 10
	}
	for _, tc := range []struct {
		name string
		set  func(c *Config[int64])
	}{
		{"no controller", func(c *Config[int64]) {}},
		{"backpressure", gated},
		{"tenants", func(c *Config[int64]) {
			gated(c)
			c.TenantWeights = []int64{1, 1}
			c.Tenant = func(v int64) int { return int(v & 1) }
		}},
		{"metrics-only", func(c *Config[int64]) { c.Metrics = obs.NewRegistry() }},
	} {
		cfg := base
		tc.set(&cfg)
		if _, err := New(cfg); err != nil {
			t.Errorf("%s: default interval rejected: %v", tc.name, err)
		}
		cfg.AdaptInterval = 500 * time.Microsecond
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "AdaptInterval") {
			t.Errorf("%s: New with a 500µs window = %v, want an error naming AdaptInterval", tc.name, err)
		}
	}
}
