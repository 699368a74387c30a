package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
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

// TestDrainReadmitsSpillwayUnderOverload is the regression test for the
// overload Drain wedge: deferred spillway tasks keep pending raised but
// (before the fix) re-entered the structure only on under-loaded
// controller ticks, so a Drain racing a controller that never delivers
// one — here pinned deterministically with an hour-long AdaptInterval
// and the admission gate forced down, exactly the state a sustained 2×
// overload leaves the scheduler in — spun on pending == 0 forever.
// Drain must now flush the spillway itself and return once the
// producers stop, with every accepted task executed.
func TestDrainReadmitsSpillwayUnderOverload(t *testing.T) {
	var executed atomic.Int64
	cfg := bpConfig(func(ctx *Ctx[int64], v int64) { executed.Add(1) })
	cfg.AdaptInterval = time.Hour // the controller will not tick during this test
	cfg.SpillCap = 4096
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// A sustained overload phase has tightened the gate to just above
	// the protected band; with the controller quiesced the threshold
	// stays there, as it would mid-overload.
	gate := cfg.ProtectedBand + 1
	s.bpGate.Store(gate)

	// 2× phases: half the traffic below the gate (admitted and executed
	// immediately), half above it (deferred into the spillway).
	const n = 2000
	var accepted int64
	r := xrand.New(99)
	for i := 0; i < n; i++ {
		var v int64
		if i%2 == 0 {
			v = int64(r.Intn(int(gate)))
		} else {
			v = gate + 1 + int64(r.Intn(1<<10))
		}
		if err := s.Submit(v); err != nil {
			t.Fatal(err)
		}
		accepted++
	}
	// The producers have stopped; the spillway must be non-empty at the
	// moment Drain is called, or the test is not exercising the wedge.
	if s.spill.Len() == 0 {
		t.Fatal("spillway empty at Drain time; the overload phase deferred nothing")
	}

	done := make(chan struct{})
	go func() {
		if err := s.Drain(); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Drain wedged: spillway tasks were never readmitted")
	}
	if got := s.spill.Len(); got != 0 {
		t.Fatalf("Drain returned with %d tasks still in the spillway", got)
	}
	if got := executed.Load(); got != accepted {
		t.Fatalf("Drain returned with %d of %d accepted tasks executed", got, accepted)
	}
	if _, err := s.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestReadmitRunsPreserveK pins the striping readmitSpill walks
// (readmitChunk, then runEnd from one run to the next): the
// concatenated runs are exactly the input in order, every run is
// k-uniform (each task is re-pushed with the k its Submit requested),
// and a large same-k batch is cut into multiple runs so readmission can
// spread over the injector lanes instead of serializing behind one.
func TestReadmitRunsPreserveK(t *testing.T) {
	mk := func(ks ...int) []deferredTask[int64] {
		ds := make([]deferredTask[int64], len(ks))
		for i, k := range ks {
			ds[i] = deferredTask[int64]{env: envelope[int64]{v: int64(k)*1000 + int64(i)}, k: k}
		}
		return ds
	}
	check := func(t *testing.T, ds []deferredTask[int64], lanes int) [][]deferredTask[int64] {
		t.Helper()
		chunk := readmitChunk(len(ds), lanes)
		var runs [][]deferredTask[int64]
		for start := 0; start < len(ds); {
			end := runEnd(ds, start, chunk)
			runs = append(runs, ds[start:end])
			start = end
		}
		var flat []deferredTask[int64]
		for _, run := range runs {
			if len(run) == 0 {
				t.Fatal("empty run")
			}
			for _, d := range run {
				if d.k != run[0].k {
					t.Fatalf("run mixes k=%d and k=%d", run[0].k, d.k)
				}
				if d.env.v/1000 != int64(d.k) {
					t.Fatalf("task %d lost its k: tagged %d, run k %d", d.env.v, d.env.v/1000, d.k)
				}
			}
			flat = append(flat, run...)
		}
		if len(flat) != len(ds) {
			t.Fatalf("runs carry %d of %d tasks", len(flat), len(ds))
		}
		for i := range flat {
			if flat[i] != ds[i] {
				t.Fatalf("order broken at %d", i)
			}
		}
		return runs
	}

	// Mixed ks cut at every boundary.
	check(t, mk(3, 3, 3, 7, 7, 1, 3), 4)
	// A large same-k batch spreads over the lanes.
	big := mk(make([]int, 512)...)
	for i := range big {
		big[i].k = 5
		big[i].env.v = 5*1000 + int64(i)
	}
	runs := check(t, big, 4)
	if len(runs) != 4 {
		t.Fatalf("512 same-k tasks over 4 lanes cut into %d runs, want 4", len(runs))
	}
	// A tiny batch is not worth fanning out: one run per k.
	if runs := check(t, mk(2, 2, 2), 8); len(runs) != 1 {
		t.Fatalf("3 tasks cut into %d runs, want 1", len(runs))
	}
	if runs := check(t, nil, 4); runs != nil {
		t.Fatalf("empty input produced runs: %v", runs)
	}
}

// recordingDS wraps the scheduler's structure and records every PushK
// so the readmission test can assert which lane and which k each
// striped run actually used.
type recordingDS struct {
	core.DS[envelope[int64]]
	mu    sync.Mutex
	calls []recordedPush
}

type recordedPush struct {
	place int
	k     int
	vs    []int64
}

func (r *recordingDS) PushK(place int, k int, vs []envelope[int64]) {
	rec := recordedPush{place: place, k: k}
	for _, e := range vs {
		rec.vs = append(rec.vs, e.v)
	}
	r.mu.Lock()
	r.calls = append(r.calls, rec)
	r.mu.Unlock()
	r.DS.PushK(place, k, vs)
}

// TestReadmitSpillStripesAcrossInjectors drives the real readmitSpill
// against a recording structure: every readmitted task is re-pushed
// with its original k (tagged into the value), and a large same-k burst
// lands on more than one injector lane — the single-injector funnel
// this PR removes.
func TestReadmitSpillStripesAcrossInjectors(t *testing.T) {
	cfg := bpConfig(func(ctx *Ctx[int64], v int64) {})
	cfg.Injectors = 4
	cfg.SpillCap = 1024
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingDS{DS: s.ds}
	s.ds = rec

	// Park a mixed-k prefix and a long same-k tail, tagging each task's
	// value with its k. The scheduler is never started: readmitSpill
	// only touches the spillway, the injector lanes and the structure.
	offer := func(k int, i int) {
		ok := s.spill.Offer(deferredTask[int64]{env: envelope[int64]{v: int64(k)*100000 + int64(i)}, k: k})
		if !ok {
			t.Fatal("spillway full")
		}
	}
	want := map[int64]bool{}
	n := 0
	for _, k := range []int{9, 9, 2, 7, 7, 7} {
		offer(k, n)
		want[int64(k)*100000+int64(n)] = true
		n++
	}
	for i := 0; i < 400; i++ {
		offer(3, n)
		want[3*100000+int64(n)] = true
		n++
	}
	if !s.readmitSpill(n, true) {
		t.Fatal("readmitSpill reported nothing drained")
	}
	if got := s.readmitted.Load(); got != int64(n) {
		t.Fatalf("Readmitted = %d, want %d", got, n)
	}

	places := map[int]bool{}
	got := map[int64]bool{}
	for _, call := range rec.calls {
		if call.place < cfg.Places || call.place >= cfg.Places+cfg.Injectors {
			t.Fatalf("readmission pushed through place %d, not an injector lane", call.place)
		}
		places[call.place] = true
		for _, v := range call.vs {
			if v/100000 != int64(call.k) {
				t.Fatalf("task %d readmitted with k=%d, was deferred with k=%d", v, call.k, v/100000)
			}
			if got[v] {
				t.Fatalf("task %d readmitted twice", v)
			}
			got[v] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("readmitted %d of %d tasks", len(got), len(want))
	}
	if len(places) < 2 {
		t.Fatalf("readmission used %d injector lane(s); the batch must stripe across lanes", len(places))
	}
}
