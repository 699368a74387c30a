package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitParked waits until the worker place has parked its handoff slot.
func waitParked[T any](t *testing.T, s *Scheduler[T]) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.slot.state.Load()&slotPhase == slotWaiting {
			return
		}
		runtime.Gosched()
	}
	t.Fatal("the place never parked its handoff slot")
}

// within runs call, failing the test if it errs or has not returned
// after 30 s: a lost task keeps Drain and Stop waiting forever.
func within(t *testing.T, name string, call func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s has not returned after 30 s: a task was lost", name)
	}
}

// TestHandoffOnlyWhenAlone pins when a Submit hands its task to a parked
// place: only when it is the only task outstanding. A second task popped
// and not yet retired (as one held in Execute is), or sitting in the
// structure, sends the Submit through the structure instead; batches,
// spawns and Run never hand off, nor does a scheduler with more than one
// place; and a handed task that Stale condemns is retired unrun and
// settled like any eliminated one.
func TestHandoffOnlyWhenAlone(t *testing.T) {
	t.Run("alone", func(t *testing.T) {
		var ran atomic.Int64
		s, err := New(Config[int64]{
			Places: 1, Strategy: RelaxedSampleTwo, K: 8, Injectors: 1, Less: intLess,
			Execute: func(ctx *Ctx[int64], v int64) { ran.Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		waitParked(t, s)
		if err := s.Submit(7); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		st, err := s.Stop()
		if err != nil {
			t.Fatal(err)
		}
		if st.DS.Handoffs != 1 || st.DS.Pushes != 0 || st.DS.Pops != 0 || ran.Load() != 1 {
			t.Fatalf("handoffs %d, pushes %d, pops %d, ran %d: want the task handed and run once, the structure untouched",
				st.DS.Handoffs, st.DS.Pushes, st.DS.Pops, ran.Load())
		}
		if st.Executed != 1 || st.Spawned != 1 {
			t.Fatalf("executed %d, spawned %d, want 1/1", st.Executed, st.Spawned)
		}
		if s.slot.env != (envelope[int64]{}) {
			t.Fatalf("slot still holds %+v after its task ran, want it cleared", s.slot.env)
		}
	})

	t.Run("second popped, not retired", func(t *testing.T) {
		// No worker runs: the test opens the submission gate, pops the
		// first task itself and holds it, as a place running it in
		// Execute would, and parks place 0's slot.
		s, err := New(Config[int64]{
			Places: 1, Strategy: RelaxedSampleTwo, K: 8, Injectors: 1, Less: intLess,
			Execute: func(ctx *Ctx[int64], v int64) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.accepting.Store(true)
		if err := s.Submit(1); err != nil {
			t.Fatal(err)
		}
		var held [1]envelope[int64]
		n := 0
		for try := 0; n == 0 && try < 1000; try++ {
			n = s.ds.PopKInto(0, held[:])
		}
		if n != 1 || held[0].v != 1 {
			t.Fatalf("PopKInto = %d (%v), want task 1", n, held[0].v)
		}
		w := s.slot.park()
		if err := s.Submit(2); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.Handoffs != 0 || st.Pushes != 2 {
			t.Fatalf("handoffs %d, pushes %d: with a task popped and not retired the Submit must push", st.Handoffs, st.Pushes)
		}
		if got := s.slot.state.Load(); got != w {
			t.Fatalf("slot state %#x, want the parked word %#x untouched", got, w)
		}
		if !s.slot.unpark(w) {
			t.Fatal("unpark of an unclaimed slot failed")
		}
		s.accepting.Store(false)
	})

	t.Run("second in the structure", func(t *testing.T) {
		// No worker runs, so the structure keeps what it is given; the
		// test opens the submission gate and parks place 0's slot itself.
		s, err := New(Config[int64]{
			Places: 1, Strategy: RelaxedSampleTwo, K: 8, Injectors: 1, Less: intLess,
			Execute: func(ctx *Ctx[int64], v int64) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.accepting.Store(true)
		if err := s.Submit(1); err != nil {
			t.Fatal(err)
		}
		w := s.slot.park()
		if err := s.Submit(2); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.Handoffs != 0 || st.Pushes != 2 {
			t.Fatalf("handoffs %d, pushes %d: with a task in the structure the Submit must push", st.Handoffs, st.Pushes)
		}
		if got := s.slot.state.Load(); got != w {
			t.Fatalf("slot state %#x, want the parked word %#x untouched", got, w)
		}
		if !s.slot.unpark(w) {
			t.Fatal("unpark of an unclaimed slot failed")
		}
		s.accepting.Store(false)
	})

	t.Run("never batches or Run", func(t *testing.T) {
		s, err := New(Config[int64]{
			Places: 1, Strategy: RelaxedSampleTwo, K: 8, Injectors: 1, Less: intLess,
			Execute: func(ctx *Ctx[int64], v int64) {
				if v < 4 {
					ctx.Spawn(v + 10) // spawns never hand off either
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		waitParked(t, s)
		if err := s.SubmitAllK(8, []int64{1, 2}); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		st, err := s.Stop()
		if err != nil {
			t.Fatal(err)
		}
		if st.DS.Handoffs != 0 || st.DS.Pushes != 4 || st.Executed != 4 {
			t.Fatalf("handoffs %d, pushes %d, executed %d: a batch and its spawns go through the structure",
				st.DS.Handoffs, st.DS.Pushes, st.Executed)
		}
		rs, err := s.Run(1, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		if rs.DS.Handoffs != 0 || rs.Executed != 6 {
			t.Fatalf("Run: handoffs %d, executed %d, want 0 and 6", rs.DS.Handoffs, rs.Executed)
		}
	})

	t.Run("stale with tenants", func(t *testing.T) {
		cfg := tenantConfig([]int64{1, 1})
		cfg.Places = 1
		cfg.AdaptInterval = time.Hour // no controller tick: the gates stay open
		cfg.Stale = func(v tenTask) bool { return v.prio < 0 }
		cfg.Execute = func(_ *Ctx[tenTask], v tenTask) {
			if v.prio < 0 {
				t.Error("stale handed task executed")
			}
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		waitParked(t, s)
		if err := s.Submit(tenTask{tenant: 1, prio: -1}); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		tc := s.TenantCounters()[1]
		st, err := s.Stop()
		if err != nil {
			t.Fatal(err)
		}
		if st.DS.Handoffs != 1 || st.DS.Pushes != 0 {
			t.Fatalf("handoffs %d, pushes %d, want the stale task handed", st.DS.Handoffs, st.DS.Pushes)
		}
		if st.Eliminated != 1 || st.Executed != 0 {
			t.Fatalf("eliminated %d, executed %d, want 1/0", st.Eliminated, st.Executed)
		}
		if tc.Admitted != 1 || tc.Executed != 0 || tc.Pending != 0 {
			t.Fatalf("tenant 1: admitted %d, executed %d, pending %d, want 1/0/0", tc.Admitted, tc.Executed, tc.Pending)
		}
		if p := s.Pending(); p != 0 {
			t.Fatalf("Pending = %d, want 0", p)
		}
	})
}

// TestHandoffDeliversExactlyOnce races the handoff against the structure:
// four producers submit singles through SubmitK, pausing now and then so
// places go idle and park, while a fifth submits batches through
// SubmitAllK, which never hand off. Drain runs mid-stream and Stop at the
// end. Every value must run exactly once, Pending must read 0 after both
// calls, and the worker must leave its slot taken back. With three places
// there is no slot, and nothing may be handed off.
func TestHandoffDeliversExactlyOnce(t *testing.T) {
	for _, places := range []int{1, 3} {
		t.Run(fmt.Sprintf("places=%d", places), func(t *testing.T) {
			testHandoffExactlyOnce(t, places)
		})
	}
}

func testHandoffExactlyOnce(t *testing.T, places int) {
	const singles, perProducer, batch = 4, 4000, 8
	const total = (singles + 1) * perProducer
	runs := make([]atomic.Int32, total)
	s, err := New(Config[int64]{
		Places:    places,
		Strategy:  RelaxedSampleTwo,
		K:         16,
		Less:      intLess,
		Injectors: 2,
		Execute:   func(ctx *Ctx[int64], v int64) { runs[v].Add(1) },
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	produce := func(p int, wg *sync.WaitGroup, from, to int) {
		defer wg.Done()
		base := p * perProducer
		if p == singles {
			vs := make([]int64, batch)
			for i := from; i < to; i += batch {
				for j := range vs {
					vs[j] = int64(base + i + j)
				}
				if err := s.SubmitAllK(16, vs); err != nil {
					t.Errorf("SubmitAllK: %v", err)
					return
				}
			}
			return
		}
		for i := from; i < to; i++ {
			if err := s.SubmitK(16, int64(base+i)); err != nil {
				t.Errorf("SubmitK: %v", err)
				return
			}
			// Let the places go idle, briefly on most submits and for
			// longer now and then, so they park and the Submits find them
			// parked while the batch producer keeps the structure busy.
			if i%8 == 0 {
				time.Sleep(20 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
		}
	}
	phase := func(from, to int) {
		var wg sync.WaitGroup
		for p := 0; p <= singles; p++ {
			wg.Add(1)
			go produce(p, &wg, from, to)
		}
		wg.Wait()
	}
	phase(0, perProducer/2)
	within(t, "Drain", func() error { return s.Drain() })
	if p := s.Pending(); p != 0 {
		t.Fatalf("Pending = %d after Drain, want 0", p)
	}
	phase(perProducer/2, perProducer)
	var st RunStats
	within(t, "Stop", func() (err error) {
		st, err = s.Stop()
		return err
	})
	if p := s.Pending(); p != 0 {
		t.Fatalf("Pending = %d after Stop, want 0", p)
	}
	for v := range runs {
		if n := runs[v].Load(); n != 1 {
			t.Fatalf("value %d ran %d times, want 1", v, n)
		}
	}
	if st.Executed != total || st.DS.Pops+st.DS.Handoffs != total || st.DS.Pushes != st.DS.Pops {
		t.Fatalf("executed %d, pops %d + handoffs %d, pushes %d: want %d executed, each popped or handed once",
			st.Executed, st.DS.Pops, st.DS.Handoffs, st.DS.Pushes, total)
	}
	if places == 1 {
		if w := s.slot.state.Load(); w&slotPhase != slotBusy {
			t.Fatalf("the place left its slot in phase %d, want it taken back", w&slotPhase)
		}
	} else if s.slot != nil || st.DS.Handoffs != 0 {
		t.Fatalf("%d places: slot %v, %d handed off, want no slot and none", places, s.slot != nil, st.DS.Handoffs)
	}
	t.Logf("places=%d: %d of %d tasks handed off", places, st.DS.Handoffs, total)
}
