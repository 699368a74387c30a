package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/xrand"
)

// TestLaneGroupsValidation pins the grouped-placement config guards.
func TestLaneGroupsValidation(t *testing.T) {
	base := Config[int64]{
		Places:   4,
		Strategy: RelaxedSampleTwo,
		Less:     intLess,
		Execute:  func(ctx *Ctx[int64], v int64) {},
	}
	cases := []struct {
		name   string
		mutate func(*Config[int64])
	}{
		{"negative LaneGroups", func(c *Config[int64]) { c.LaneGroups = -1 }},
		{"more groups than places", func(c *Config[int64]) { c.LaneGroups = 5 }},
		{"adaptive placement without groups", func(c *Config[int64]) { c.AdaptivePlacement = true }},
		{"adaptive placement with flat lanes", func(c *Config[int64]) { c.AdaptivePlacement = true; c.LaneGroups = 1 }},
		{"adaptive placement on ungrouped strategy", func(c *Config[int64]) {
			c.AdaptivePlacement = true
			c.LaneGroups = 2
			c.Strategy = Hybrid
		}},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
	// Fixed groups on a non-relaxed strategy are documented as ignored,
	// not rejected (the dstest no-op-groups contract).
	cfg := base
	cfg.Strategy = Hybrid
	cfg.LaneGroups = 2
	if _, err := New(cfg); err != nil {
		t.Fatalf("fixed LaneGroups on hybrid rejected: %v", err)
	}
}

// TestPlacementStateFixedGroups: a fixed grouped scheduler reports its
// partition through PlacementState and per-group contention through
// GroupContention; flat and non-relaxed schedulers report nothing.
func TestPlacementStateFixedGroups(t *testing.T) {
	s, err := New(Config[int64]{
		Places:     4,
		Strategy:   Relaxed,
		Less:       intLess,
		Execute:    func(ctx *Ctx[int64], v int64) {},
		LaneGroups: 2,
		Injectors:  2,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := s.PlacementState(); !ok || g != 2 {
		t.Fatalf("PlacementState = %d,%v want 2,true", g, ok)
	}
	if gc := s.GroupContention(); len(gc) != 2 {
		t.Fatalf("GroupContention reported %d groups, want 2", len(gc))
	}
	if s.PlacementTrace() != nil {
		t.Fatal("fixed grouped scheduler reported a placement trace")
	}

	flat, err := New(Config[int64]{
		Places: 2, Strategy: Relaxed, Less: intLess,
		Execute: func(ctx *Ctx[int64], v int64) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := flat.PlacementState(); ok {
		t.Fatal("flat scheduler reported a placement state")
	}
	if flat.GroupContention() != nil {
		t.Fatal("flat scheduler reported group contention")
	}
}

// TestServeGroupedExactlyOnce: a grouped scheduler serving concurrent
// producers executes every accepted task exactly once — cross-group
// steals and all — and the locality counters stay coherent
// (CrossGroupPops never exceeds Pops).
func TestServeGroupedExactlyOnce(t *testing.T) {
	var executed atomic.Int64
	s, err := New(Config[int64]{
		Places:     4,
		Strategy:   RelaxedSampleTwo,
		K:          64,
		Less:       intLess,
		Execute:    func(ctx *Ctx[int64], v int64) { executed.Add(1) },
		Injectors:  4,
		LaneGroups: 4,
		Stickiness: 4,
		Batch:      4,
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 4, 4000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := xrand.New(uint64(p) + 1)
			for i := 0; i < perProducer; i++ {
				if err := s.Submit(int64(r.Intn(1 << 16))); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != producers*perProducer {
		t.Fatalf("executed %d of %d", got, producers*perProducer)
	}
	if st.DS.CrossGroupPops > st.DS.Pops {
		t.Fatalf("CrossGroupPops %d exceeds Pops %d", st.DS.CrossGroupPops, st.DS.Pops)
	}
}

// TestServeAdaptivePlacement drives the placement controller end to
// end on real traffic: Start seeds the finest partition, the per-window
// trace records decisions within bounds, PlacementState tracks the
// controller, and Stop restores the configured partition for the next
// session.
func TestServeAdaptivePlacement(t *testing.T) {
	var executed atomic.Int64
	s, err := New(Config[int64]{
		Places:            4,
		Strategy:          RelaxedSampleTwo,
		K:                 64,
		Less:              intLess,
		Execute:           func(ctx *Ctx[int64], v int64) { executed.Add(1) },
		Injectors:         4,
		LaneGroups:        4,
		Stickiness:        8,
		AdaptivePlacement: true,
		AdaptInterval:     2 * time.Millisecond,
		Seed:              17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if g, ok := s.PlacementState(); !ok || g != 4 {
		t.Fatalf("PlacementState at Start = %d,%v want 4,true (seed at the finest partition)", g, ok)
	}
	const producers, perProducer = 4, 8000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := xrand.New(uint64(p) + 31)
			for i := 0; i < perProducer; i++ {
				if err := s.Submit(int64(r.Intn(1 << 16))); err != nil {
					t.Error(err)
					return
				}
				if i%64 == 0 {
					time.Sleep(50 * time.Microsecond) // let the controller tick mid-traffic
				}
			}
		}(p)
	}
	wg.Wait()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	trace := s.PlacementTrace()
	if len(trace) == 0 {
		t.Fatal("no placement windows recorded")
	}
	for i, w := range trace {
		if w.State.Groups < 1 || w.State.Groups > 4 {
			t.Fatalf("window %d: groups %d outside [1, 4]", i, w.State.Groups)
		}
	}
	if g, ok := s.PlacementState(); !ok || g < 1 || g > 4 {
		t.Fatalf("PlacementState mid-session = %d,%v", g, ok)
	}
	if _, err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != producers*perProducer {
		t.Fatalf("executed %d of %d", got, producers*perProducer)
	}
	if g, ok := s.PlacementState(); !ok || g != 4 {
		t.Fatalf("PlacementState after Stop = %d,%v want the configured 4 restored", g, ok)
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
