package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adapt"
)

// TestServeAdaptiveRaceStress floods an adaptive scheduler from
// concurrent single and batch producers, injects a mid-run burst,
// drains and stops while the controller is live — the -race lane's
// closed-loop counterpart of TestServeStress. A deterministic fake rank
// signal alternates between under- and over-budget so both controller
// branches run against real traffic. Asserts: no task is lost or
// duplicated, the controller goroutine exits cleanly (Stop joins it and
// a later Start gets a fresh one), and every traced decision stays
// within the configured limits.
func TestServeAdaptiveRaceStress(t *testing.T) {
	const producers = 4
	perProducer := 8000
	if testing.Short() {
		perProducer = 2000
	}
	const burst = 4096
	total := producers*perProducer + burst
	seen := make([]atomic.Int32, total)
	var executed atomic.Int64
	var signalCalls atomic.Int64
	var reusingIDs atomic.Bool // second session re-submits old ids
	limits := adapt.Limits{MinStickiness: 1, MaxStickiness: 16, MinBatch: 1, MaxBatch: 32}
	s, err := New(Config[int64]{
		Places:          4,
		Strategy:        RelaxedSampleTwo,
		K:               128,
		Less:            intLess,
		Injectors:       producers,
		Adaptive:        true,
		AdaptiveLimits:  limits,
		RankErrorBudget: 64,
		AdaptInterval:   time.Millisecond,
		RankSignal: func() float64 {
			// Deterministically alternate: no signal, under budget, over
			// budget — so hold, grow and back-off all fire mid-traffic.
			switch signalCalls.Add(1) % 3 {
			case 0:
				return -1
			case 1:
				return 1
			default:
				return 1e6
			}
		},
		Execute: func(ctx *Ctx[int64], v int64) {
			if !reusingIDs.Load() && seen[v].Add(1) != 1 {
				t.Errorf("task %d executed more than once", v)
			}
			executed.Add(1)
		},
		Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			buf := make([]int64, 0, 16)
			for i := 0; i < perProducer; i++ {
				v := int64(p*perProducer + i)
				if i%16 < 8 {
					if err := s.SubmitK(1+int(v%512), v); err != nil {
						t.Errorf("producer %d: %v", p, err)
						return
					}
					continue
				}
				buf = append(buf, v)
				if len(buf) == 8 {
					if err := s.SubmitAllK(64, buf); err != nil {
						t.Errorf("producer %d batch: %v", p, err)
						return
					}
					buf = buf[:0]
				}
			}
			if len(buf) > 0 {
				if err := s.SubmitAll(buf); err != nil {
					t.Errorf("producer %d tail: %v", p, err)
				}
			}
		}(p)
	}
	// Mid-run burst while the producers and the controller are live.
	burstVals := make([]int64, burst)
	for i := range burstVals {
		burstVals[i] = int64(producers*perProducer + i)
	}
	if err := s.SubmitAll(burstVals); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil { // drain races the producers: allowed
		t.Fatal(err)
	}
	wg.Wait()
	st, err := s.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != int64(total) {
		t.Fatalf("executed %d of %d", got, total)
	}
	if st.Executed != int64(total) {
		t.Fatalf("Stop stats executed = %d, want %d", st.Executed, total)
	}

	// The controller ran and every decision respected the limits.
	trace := s.AdaptiveTrace()
	if len(trace) == 0 {
		t.Fatal("controller produced no trace windows")
	}
	for i, w := range trace {
		if w.State.Stickiness < limits.MinStickiness || w.State.Stickiness > limits.MaxStickiness ||
			w.State.Batch < limits.MinBatch || w.State.Batch > limits.MaxBatch {
			t.Fatalf("trace window %d out of limits: %+v", i, w.State)
		}
	}
	if _, _, ok := s.AdaptiveState(); !ok {
		t.Fatal("AdaptiveState reports non-adaptive scheduler")
	}

	// Clean controller exit: Stop joined the goroutine, so a fresh
	// session starts a fresh controller (trace resets) and Stops clean
	// again even with zero traffic.
	reusingIDs.Store(true)
	if err := s.Start(); err != nil {
		t.Fatalf("restart after adaptive session: %v", err)
	}
	if err := s.Submit(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // give the fresh controller a window
	if _, err := s.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveControllerAdjustsKnobs: under sustained uncontended
// closed-loop-ish traffic with no budget, the controller must move B (and
// eventually S) up from the seeds, and Stop must restore the seed knobs
// for the next session while AdaptiveState keeps reporting the adapted
// values.
func TestAdaptiveControllerAdjustsKnobs(t *testing.T) {
	var executed atomic.Int64
	s, err := New(Config[int64]{
		Places:        2,
		Strategy:      RelaxedSampleTwo,
		Less:          intLess,
		Injectors:     2,
		Adaptive:      true,
		AdaptInterval: time.Millisecond,
		Execute:       func(ctx *Ctx[int64], v int64) { executed.Add(1) },
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	var moved bool
	for time.Now().Before(deadline) {
		for i := int64(0); i < 2000; i++ {
			if err := s.Submit(i); err != nil {
				t.Fatal(err)
			}
		}
		if _, b, _ := s.AdaptiveState(); b > 1 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("controller never grew the batch under sustained uncontended traffic")
	}
	if _, err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	stick, b, ok := s.AdaptiveState()
	if !ok || b < 1 || stick < 1 {
		t.Fatalf("post-Stop AdaptiveState = %d/%d/%v", stick, b, ok)
	}
	// The live knob was restored to the seed for the next session.
	if got := s.effBatch.Load(); got != 1 {
		t.Fatalf("effective batch after Stop = %d, want the seed 1", got)
	}
	if got := s.ds.(interface{ Stickiness() int }).Stickiness(); got != 1 {
		t.Fatalf("stickiness after Stop = %d, want the seed 1", got)
	}
}

// TestConfigKnobUpperBounds covers the validation boundary: the largest
// legal Batch/Stickiness values are accepted, one past them is rejected,
// and adaptive limits beyond the caps are rejected too.
func TestConfigKnobUpperBounds(t *testing.T) {
	exec := func(ctx *Ctx[int64], v int64) {}
	mk := func(mut func(*Config[int64])) Config[int64] {
		cfg := Config[int64]{Places: 1, Less: intLess, Execute: exec, Strategy: RelaxedSampleTwo}
		mut(&cfg)
		return cfg
	}
	accepted := []Config[int64]{
		mk(func(c *Config[int64]) { c.Batch = MaxBatch }),
		mk(func(c *Config[int64]) { c.Stickiness = MaxStickiness }),
		mk(func(c *Config[int64]) {
			c.Adaptive = true
			c.AdaptiveLimits = adapt.Limits{MaxBatch: MaxBatch, MaxStickiness: MaxStickiness}
		}),
	}
	for i, cfg := range accepted {
		if _, err := New(cfg); err != nil {
			t.Errorf("boundary config %d rejected: %v", i, err)
		}
	}
	rejected := []Config[int64]{
		mk(func(c *Config[int64]) { c.Batch = MaxBatch + 1 }),
		mk(func(c *Config[int64]) { c.Stickiness = MaxStickiness + 1 }),
		mk(func(c *Config[int64]) { c.RankErrorBudget = -1 }),
		mk(func(c *Config[int64]) {
			c.Adaptive = true
			c.AdaptiveLimits = adapt.Limits{MaxBatch: MaxBatch + 1}
		}),
		mk(func(c *Config[int64]) {
			c.Adaptive = true
			c.AdaptiveLimits = adapt.Limits{MaxStickiness: MaxStickiness + 1}
		}),
		mk(func(c *Config[int64]) {
			c.Adaptive = true
			c.AdaptiveLimits = adapt.Limits{MinBatch: 8, MaxBatch: 4}
		}),
		mk(func(c *Config[int64]) {
			c.Adaptive = true
			c.AdaptInterval = time.Microsecond
		}),
	}
	for i, cfg := range rejected {
		if _, err := New(cfg); err == nil {
			t.Errorf("pathological config %d accepted", i)
		}
	}
}

// TestAdaptiveSessionsAreIndependent: the structure's counters are
// cumulative across sessions, so a second serve session's controller
// must be primed with the running totals — its windows then sample only
// that session's (zero) traffic and the knobs hold at their seeds,
// instead of reacting to the first session's history as if it were one
// giant window.
func TestAdaptiveSessionsAreIndependent(t *testing.T) {
	s, err := New(Config[int64]{
		Places:        2,
		Strategy:      RelaxedSampleTwo,
		Less:          intLess,
		Injectors:     2,
		Adaptive:      true,
		AdaptInterval: time.Millisecond,
		Execute:       func(ctx *Ctx[int64], v int64) {},
		Seed:          21,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Session 1: real traffic, so the cumulative counters are large.
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50000; i++ {
		if err := s.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	// Session 2: no traffic at all. Every window must be idle (zero
	// pops sampled) and hold the seed state.
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if _, err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	trace := s.AdaptiveTrace()
	if len(trace) == 0 {
		t.Fatal("second session recorded no windows")
	}
	for i, w := range trace {
		if w.Sample.Pops != 0 {
			t.Fatalf("idle session window %d sampled %d pops from the previous session", i, w.Sample.Pops)
		}
		if w.State != s.adaptSeed {
			t.Fatalf("idle session window %d moved the state to %+v", i, w.State)
		}
	}
}

// TestAdaptiveTraceBounded: the retained trace is a ring of the most
// recent maxTraceWindows decisions — a long-lived server must not grow
// it without bound — and AdaptiveTrace returns them oldest first.
func TestAdaptiveTraceBounded(t *testing.T) {
	s, err := New(Config[int64]{
		Places:    1,
		Strategy:  RelaxedSampleTwo,
		Less:      intLess,
		Injectors: 1,
		Adaptive:  true,
		Execute:   func(ctx *Ctx[int64], v int64) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := adapt.NewController(s.adaptCfg, s.adaptSeed)
	if err != nil {
		t.Fatal(err)
	}
	s.adaptCtl.Begin(ctrl, s.snapshot())
	const extra = 37
	for i := 0; i < maxTraceWindows+extra; i++ {
		s.adaptTick(time.Duration(i)*time.Millisecond, -1)
	}
	trace := s.AdaptiveTrace()
	if len(trace) != maxTraceWindows {
		t.Fatalf("trace holds %d windows, want the %d-window ring", len(trace), maxTraceWindows)
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].At <= trace[i-1].At {
			t.Fatalf("trace out of order at %d: %v after %v", i, trace[i].At, trace[i-1].At)
		}
	}
	if got, want := trace[len(trace)-1].At, time.Duration(maxTraceWindows+extra-1)*time.Millisecond; got != want {
		t.Fatalf("newest window At = %v, want %v", got, want)
	}
}

// TestAdaptiveStateOffByDefault: a non-adaptive scheduler reports no
// adaptive state and an empty trace.
func TestAdaptiveStateOffByDefault(t *testing.T) {
	s, err := New(Config[int64]{
		Places: 1, Less: intLess,
		Execute: func(ctx *Ctx[int64], v int64) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.AdaptiveState(); ok {
		t.Fatal("AdaptiveState ok on a non-adaptive scheduler")
	}
	if tr := s.AdaptiveTrace(); len(tr) != 0 {
		t.Fatalf("non-adaptive trace has %d windows", len(tr))
	}
}
