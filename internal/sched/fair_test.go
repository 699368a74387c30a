package sched

import (
	"errors"
	"testing"
	"time"
)

// tenTask is the tenant-fairness test task: a tenant id plus a numeric
// priority.
type tenTask struct {
	tenant int
	prio   int64
}

func tenantConfig(weights []int64) Config[tenTask] {
	return Config[tenTask]{
		Places:    4,
		Strategy:  RelaxedSampleTwo,
		K:         64,
		Injectors: 2,
		Less:      func(a, b tenTask) bool { return a.prio < b.prio },
		Priority:  func(v tenTask) int64 { return v.prio },
		MaxPrio:   1 << 20,
		Execute: func(ctx *Ctx[tenTask], v tenTask) {
			// Sleep on a sparse subset: enough service time to make a
			// burst a genuine overload, without paying timer-granularity
			// latency (~50µs per sleep on Linux) on every task.
			if v.prio%16 == 0 {
				time.Sleep(20 * time.Microsecond)
			}
		},
		Backpressure:  true,
		TenantWeights: weights,
		Tenant:        func(v tenTask) int { return v.tenant },
		AdaptInterval: 2 * time.Millisecond,
		Seed:          7,
	}
}

// TestTenantConfigValidation pins the construction-time contract of
// the tenancy knobs.
func TestTenantConfigValidation(t *testing.T) {
	cfg := tenantConfig([]int64{7, 1, 1, 1})
	cfg.Tenant = nil
	if _, err := New(cfg); err == nil {
		t.Error("TenantWeights without a Tenant projection was accepted")
	}

	cfg = tenantConfig([]int64{7, 1, 1, 1})
	cfg.Backpressure = false
	if _, err := New(cfg); err == nil {
		t.Error("TenantWeights without Backpressure was accepted")
	}

	cfg = tenantConfig([]int64{7, -1})
	if _, err := New(cfg); err == nil {
		t.Error("a negative tenant weight was accepted")
	}

	cfg = tenantConfig([]int64{0, 0})
	if _, err := New(cfg); err == nil {
		t.Error("an all-zero weight vector was accepted")
	}

	cfg = tenantConfig([]int64{7, 1, 1, 1})
	cfg.TenantFloorFrac = 0.9
	if _, err := New(cfg); err == nil {
		t.Error("TenantFloorFrac = 0.9 was accepted")
	}
}

// TestServeTenantFairness drives a real serve session through a
// 10×-skewed overload burst and checks the tenant wiring end to end:
// the gate engages, every tenant makes progress, the per-tenant
// ledgers conserve task flow exactly, and the trace/state accessors
// report the session.
func TestServeTenantFairness(t *testing.T) {
	// The workers stall until the gate has engaged, so the burst is an
	// overload on any box at any speed (a window that executed nothing
	// has a zero depth budget): whether four free-running workers fall
	// behind 20k submissions is a wall-clock question, and under the
	// race detector the answer was often no.
	cfg := tenantConfig([]int64{7, 1, 1, 1})
	hold := make(chan struct{})
	run := cfg.Execute
	cfg.Execute = func(ctx *Ctx[tenTask], v tenTask) {
		<-hold
		run(ctx, v)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	shed := make([]int64, 4)
	for i := 0; i < 20000; i++ {
		ten := 0
		if i%13 >= 10 {
			ten = 1 + i%3 // ~10× hot-tenant skew
		}
		v := tenTask{tenant: ten, prio: int64(1024 + i%4096)}
		if err := s.Submit(v); err != nil {
			if !errors.Is(err, ErrShed) {
				t.Fatalf("Submit: %v", err)
			}
			shed[ten]++
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, _ := s.FairState(); st.Gated || time.Now().After(deadline) {
			break // an unengaged gate is reported from the trace below
		}
	}
	close(hold)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stop()
	if err != nil {
		t.Fatal(err)
	}

	trace := s.FairTrace()
	if len(trace) == 0 {
		t.Fatal("FairTrace is empty after a serve session")
	}
	gated := false
	for _, w := range trace {
		if w.State.Gated {
			gated = true
			break
		}
	}
	if !gated {
		t.Error("a 20k-task burst against stalled workers never engaged the tenant gate")
	}
	if _, ok := s.FairState(); !ok {
		t.Error("FairState reports tenancy off")
	}

	tens := s.TenantCounters()
	if len(tens) != 4 {
		t.Fatalf("TenantCounters has %d entries, want 4", len(tens))
	}
	var admitted, deferred, shedN, executed int64
	for ten, tc := range tens {
		if tc.Executed == 0 {
			t.Errorf("tenant %d executed nothing", ten)
		}
		if tc.Pending != 0 {
			t.Errorf("tenant %d still pending %d after Stop", ten, tc.Pending)
		}
		// Exact per-tenant flow conservation: every arrival was
		// admitted, parked or shed; every accepted task executed.
		if tc.Arrived != tc.Admitted+tc.Deferred+tc.Shed {
			t.Errorf("tenant %d arrival ledger broken: %+v", ten, tc)
		}
		if tc.Admitted+tc.Deferred != tc.Executed {
			t.Errorf("tenant %d execution ledger broken: %+v", ten, tc)
		}
		if tc.Shed != shed[ten] {
			t.Errorf("tenant %d shed %d, submitters saw %d ErrShed", ten, tc.Shed, shed[ten])
		}
		admitted += tc.Admitted
		deferred += tc.Deferred
		shedN += tc.Shed
		executed += tc.Executed
	}
	if executed != st.Executed {
		t.Errorf("per-tenant executed sums to %d, session executed %d", executed, st.Executed)
	}
	if shedN != st.DS.Shed {
		t.Errorf("per-tenant shed sums to %d, session shed %d", shedN, st.DS.Shed)
	}
	if deferred != st.DS.Deferred {
		t.Errorf("per-tenant deferred sums to %d, session deferred %d", deferred, st.DS.Deferred)
	}
	// The quota-attributed splits are bounded by the totals.
	if st.DS.TenantShed > st.DS.Shed || st.DS.TenantDeferred > st.DS.Deferred {
		t.Errorf("tenant-quota splits exceed totals: %+v", st.DS)
	}
}

// TestServeTenantSessionIsolation pins the between-sessions protocol:
// a second session starts with the gate open and a fresh trace.
func TestServeTenantSessionIsolation(t *testing.T) {
	s, err := New(tenantConfig([]int64{3, 1}))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if err := s.Start(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := 0; i < 2000; i++ {
			v := tenTask{tenant: i % 2, prio: int64(1024 + i%512)}
			if err := s.Submit(v); err != nil && !errors.Is(err, ErrShed) {
				t.Fatalf("round %d Submit: %v", round, err)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Stop(); err != nil {
			t.Fatal(err)
		}
		if s.tenGated.Load() {
			t.Fatalf("round %d: tenant gate still engaged after Stop", round)
		}
	}
}
