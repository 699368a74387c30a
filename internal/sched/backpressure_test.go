package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrand"
)

// bpConfig is the baseline backpressure scheduler configuration the
// serve tests start from: a 2^20 priority domain with the most urgent
// 2^17 protected, a deliberately small spillway so overload actually
// sheds, and a fast controller window so short tests see many
// decisions.
func bpConfig(execute func(ctx *Ctx[int64], v int64)) Config[int64] {
	return Config[int64]{
		Places:        2,
		Strategy:      RelaxedSampleTwo,
		K:             512,
		Less:          intLess,
		Execute:       execute,
		Injectors:     4,
		Backpressure:  true,
		Priority:      func(v int64) int64 { return v },
		MaxPrio:       1<<20 - 1,
		ProtectedBand: 1 << 17,
		SojournBudget: 5 * time.Millisecond,
		SpillCap:      128,
		AdaptInterval: 2 * time.Millisecond,
		Seed:          42,
	}
}

func TestBackpressureConfigValidation(t *testing.T) {
	base := bpConfig(func(ctx *Ctx[int64], v int64) {})
	cases := []struct {
		name   string
		mutate func(*Config[int64])
	}{
		{"missing Priority", func(c *Config[int64]) { c.Priority = nil }},
		{"zero MaxPrio", func(c *Config[int64]) { c.MaxPrio = 0 }},
		{"negative MaxPrio", func(c *Config[int64]) { c.MaxPrio = -1 }},
		{"band outside domain", func(c *Config[int64]) { c.ProtectedBand = c.MaxPrio + 1 }},
		{"negative band", func(c *Config[int64]) { c.ProtectedBand = -1 }},
		{"negative spill cap", func(c *Config[int64]) { c.SpillCap = -1 }},
		{"sub-ms sojourn budget", func(c *Config[int64]) { c.SojournBudget = time.Microsecond }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
	// The knobs are only validated when the feature is on.
	cfg := base
	cfg.Backpressure = false
	cfg.Priority = nil
	cfg.MaxPrio = 0
	if _, err := New(cfg); err != nil {
		t.Fatalf("backpressure-off config rejected: %v", err)
	}
}

// TestServeBackpressureOverload floods a deliberately slow scheduler
// far past its capacity and checks the whole overload story on real
// traffic: tasks are shed (ErrShed), protected-band tasks never are,
// every accepted task still executes, and the counters balance.
func TestServeBackpressureOverload(t *testing.T) {
	var slow atomic.Bool
	slow.Store(true)
	cfg := bpConfig(func(ctx *Ctx[int64], v int64) {
		if slow.Load() {
			// Throttle the service rate while the flood is on so the
			// backlog genuinely overloads the sojourn budget.
			time.Sleep(20 * time.Microsecond)
		}
	})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	const producers = 4
	perProducer := 20000
	if testing.Short() {
		perProducer = 5000
	}
	var (
		wg        sync.WaitGroup
		attempts  atomic.Int64
		sheds     atomic.Int64
		protected atomic.Int64
	)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := xrand.New(uint64(p)*997 + 1)
			for i := 0; i < perProducer; i++ {
				var prio int64
				if i%50 == 0 {
					// Interleave protected traffic: must never shed.
					prio = int64(r.Uint64n(uint64(cfg.ProtectedBand)))
					protected.Add(1)
				} else {
					prio = int64(r.Uint64n(uint64(cfg.MaxPrio + 1)))
				}
				attempts.Add(1)
				err := s.Submit(prio)
				switch {
				case err == nil:
				case errors.Is(err, ErrShed):
					if prio < cfg.ProtectedBand {
						t.Errorf("protected task %d shed", prio)
					}
					sheds.Add(1)
				default:
					t.Errorf("Submit: %v", err)
				}
				if i%500 == 0 {
					// Stretch the flood over several controller windows.
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

	if sheds.Load() == 0 {
		t.Fatal("sustained overload shed nothing")
	}
	accepted := attempts.Load() - sheds.Load()
	if st.Executed != accepted {
		t.Fatalf("executed %d of %d accepted tasks", st.Executed, accepted)
	}
	if st.DS.Shed != sheds.Load() {
		t.Fatalf("Stats.Shed = %d, producers saw %d ErrShed", st.DS.Shed, sheds.Load())
	}
	if st.DS.Deferred == 0 {
		t.Fatal("overload never used the spillway")
	}
	if st.DS.Deferred != st.DS.Readmitted {
		t.Fatalf("deferred %d != readmitted %d at quiescence: spillway tasks lost or duplicated",
			st.DS.Deferred, st.DS.Readmitted)
	}
	trace := s.BackpressureTrace()
	if len(trace) == 0 {
		t.Fatal("no backpressure trace recorded")
	}
	min := cfg.MaxPrio
	for _, w := range trace {
		if w.State.Threshold < min {
			min = w.State.Threshold
		}
	}
	if min >= cfg.MaxPrio {
		t.Fatal("threshold never tightened under overload")
	}
	if min < cfg.ProtectedBand {
		t.Fatalf("threshold tightened into the protected band: %d", min)
	}
	if _, ok := s.BackpressureState(); !ok {
		t.Fatal("BackpressureState reports not configured")
	}
}

// TestServeBackpressureStopFlushesSpill parks tasks in the spillway
// (by pinning the gate shut with a controller window too long to ever
// tick) and checks Stop's accepted-task guarantee: every deferred task
// executes before Stop returns.
func TestServeBackpressureStopFlushesSpill(t *testing.T) {
	var executed atomic.Int64
	cfg := bpConfig(func(ctx *Ctx[int64], v int64) { executed.Add(1) })
	cfg.AdaptInterval = time.Hour // no controller tick during the test
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.bpGate.Store(cfg.ProtectedBand) // pin the gate shut above the band
	const deferred = 64
	for i := 0; i < deferred; i++ {
		// Above the band: must be deferred (spillway has room), which is
		// an acceptance — Submit returns nil. Distinct per-task k values
		// must survive the detour through the spillway.
		if err := s.SubmitK(7+i%3, cfg.ProtectedBand+1+int64(i)); err != nil {
			t.Fatalf("deferred submit %d: %v", i, err)
		}
	}
	if got := s.spill.Len(); got != deferred {
		t.Fatalf("spillway holds %d tasks, want %d", got, deferred)
	}
	var head [1]deferredTask[int64]
	if n := s.spill.DrainUpToInto(head[:]); n != 1 || head[0].k != 7 {
		t.Fatalf("spillway dropped the caller's k: %+v", head[:n])
	} else if !s.spill.Offer(head[0]) {
		t.Fatal("could not return the inspected task to the spillway")
	}
	st, err := s.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != deferred || st.Executed != deferred {
		t.Fatalf("executed %d (stats %d) of %d deferred tasks", executed.Load(), st.Executed, deferred)
	}
	if s.spill.Len() != 0 {
		t.Fatalf("spillway still holds %d tasks after Stop", s.spill.Len())
	}
	if st.DS.Deferred != deferred || st.DS.Readmitted != deferred || st.DS.Shed != 0 {
		t.Fatalf("counters deferred=%d readmitted=%d shed=%d, want %d/%d/0",
			st.DS.Deferred, st.DS.Readmitted, st.DS.Shed, deferred, deferred)
	}
	// Past capacity the gate must shed instead.
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.bpGate.Store(cfg.ProtectedBand)
	shed := 0
	for i := 0; i < cfg.SpillCap+32; i++ {
		if err := s.Submit(cfg.ProtectedBand + 1); errors.Is(err, ErrShed) {
			shed++
		}
	}
	if shed != 32 {
		t.Fatalf("shed %d tasks past the %d-task spillway, want 32", shed, cfg.SpillCap)
	}
	if _, err := s.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestServeBackpressureRestart: sessions are independent — a gate
// driven shut by one session's overload starts the next session fully
// open, and a quiet second session sheds nothing.
func TestServeBackpressureRestart(t *testing.T) {
	var slow atomic.Bool
	slow.Store(true)
	cfg := bpConfig(func(ctx *Ctx[int64], v int64) {
		if slow.Load() {
			time.Sleep(50 * time.Microsecond)
		}
	})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(7)
	shed := 0
	for i := 0; i < 30000; i++ {
		if err := s.Submit(int64(r.Uint64n(uint64(cfg.MaxPrio + 1)))); errors.Is(err, ErrShed) {
			shed++
		}
		if i%2000 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	slow.Store(false)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if shed == 0 {
		t.Skip("first session never overloaded on this machine; nothing to assert about recovery")
	}

	// Session 2: light traffic, fresh gate.
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if bst, ok := s.BackpressureState(); !ok || bst.Threshold != cfg.MaxPrio {
		t.Fatalf("second session started with threshold %d, want fully open %d", bst.Threshold, cfg.MaxPrio)
	}
	for i := 0; i < 1000; i++ {
		if err := s.Submit(int64(r.Uint64n(uint64(cfg.MaxPrio + 1)))); err != nil {
			t.Fatalf("quiet second session rejected a submit: %v", err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if st.DS.Shed != 0 {
		t.Fatalf("quiet second session shed %d tasks", st.DS.Shed)
	}
}

// TestServeBackpressureWithAdaptive runs both runtime controllers in
// one session — they share the ctlLoop tick and the rank signal — and
// checks they coexist: batch submits flow, both traces fill, and the
// accounting still balances.
func TestServeBackpressureWithAdaptive(t *testing.T) {
	var slow atomic.Bool
	slow.Store(true)
	cfg := bpConfig(func(ctx *Ctx[int64], v int64) {
		if slow.Load() {
			time.Sleep(10 * time.Microsecond)
		}
	})
	cfg.Adaptive = true
	cfg.Batch = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(11)
	var attempts, sheds int64
	out := make([]Outcome, 8)
	for i := 0; i < 4000; i++ {
		vs := make([]int64, 8)
		for j := range vs {
			vs[j] = int64(r.Uint64n(uint64(cfg.MaxPrio + 1)))
		}
		attempts += int64(len(vs))
		accepted, err := s.SubmitAllKOutcomes(cfg.K, vs, out)
		if err != nil && !errors.Is(err, ErrShed) {
			t.Fatalf("SubmitAllKOutcomes: %v", err)
		}
		shedHere := 0
		for _, o := range out {
			if o == Shed {
				shedHere++
			}
		}
		if accepted != len(vs)-shedHere {
			t.Fatalf("accepted %d, outcomes say %d", accepted, len(vs)-shedHere)
		}
		if (err == nil) == (shedHere > 0) {
			t.Fatalf("error %v inconsistent with %d sheds", err, shedHere)
		}
		sheds += int64(shedHere)
		if i%500 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	slow.Store(false)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != attempts-sheds {
		t.Fatalf("executed %d of %d accepted", st.Executed, attempts-sheds)
	}
	if st.DS.Shed != sheds {
		t.Fatalf("Stats.Shed = %d, outcomes counted %d", st.DS.Shed, sheds)
	}
	if len(s.AdaptiveTrace()) == 0 || len(s.BackpressureTrace()) == 0 {
		t.Fatalf("controller traces adaptive=%d backpressure=%d, want both non-empty",
			len(s.AdaptiveTrace()), len(s.BackpressureTrace()))
	}
}
