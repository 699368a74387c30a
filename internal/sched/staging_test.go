package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStagingDeliversExactlyOnce drives four producers through the
// batch submit paths, which stage each batch in the injector lane's
// retained buffer, while readmission stages spillway runs in the same
// buffers. A staged envelope read after another push had overwritten
// it would surface as a value lost, run twice or run in place of
// another. Every accepted value must run exactly once, no shed value
// may run, and Pending must end at 0 — over four lanes and over the one
// lane every producer shares, ungated and with a gate and a spillway so
// small that tasks are deferred, shed and readmitted throughout.
func TestStagingDeliversExactlyOnce(t *testing.T) {
	for _, injectors := range []int{4, 1} {
		for _, gated := range []bool{false, true} {
			t.Run(fmt.Sprintf("injectors=%d/gated=%v", injectors, gated), func(t *testing.T) {
				testStagingExactlyOnce(t, injectors, gated)
			})
		}
	}
}

func testStagingExactlyOnce(t *testing.T, injectors int, gated bool) {
	// Even producers submit batches of 16 through SubmitAllKOutcomes;
	// odd ones submit batches of gatedRun+16 through SubmitAllK, so a
	// gated batch without an out slice is decided and pushed in two runs.
	const producers, perProducer, small, large = 4, 16 * (gatedRun + 16), 16, gatedRun + 16
	const total = producers * perProducer
	runs := make([]atomic.Int32, total)
	cfg := Config[int64]{
		Places:    2,
		Strategy:  Relaxed,
		K:         64,
		Less:      intLess,
		Injectors: injectors,
		Priority:  func(v int64) int64 { return v % 1024 },
		MaxPrio:   1023,
		Execute:   func(ctx *Ctx[int64], v int64) { runs[v].Add(1) },
		Seed:      7,
	}
	if gated {
		cfg.Backpressure = true
		cfg.SpillCap = 64
		cfg.AdaptInterval = time.Hour // the test sets the gate itself
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if gated {
		s.bpGate.Store(511) // half of the priorities are turned away
	}

	// outcome[v] is what the submitter learned about v: 0 nothing (a
	// SubmitAllK batch under the gate), else 1 + its Outcome.
	outcome := make([]uint8, total)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			withOut := p%2 == 0
			batch := large
			if withOut {
				batch = small
			}
			vs := make([]int64, batch)
			out := make([]Outcome, batch)
			for base := p * perProducer; base < (p+1)*perProducer; base += batch {
				for j := range vs {
					vs[j] = int64(base + j)
				}
				if withOut {
					if _, err := s.SubmitAllKOutcomes(8, vs, out); err != nil && !errors.Is(err, ErrShed) {
						t.Errorf("SubmitAllKOutcomes: %v", err)
						return
					}
					for j := range vs {
						outcome[base+j] = 1 + uint8(out[j])
					}
					continue
				}
				err := s.SubmitAllK(8, vs)
				if err != nil && !(gated && errors.Is(err, ErrShed)) {
					t.Errorf("SubmitAllK: %v", err)
					return
				}
				if !gated {
					for j := range vs {
						outcome[base+j] = 1 + uint8(Admitted)
					}
				}
			}
		}(p)
	}
	// Readmit in small, paced rounds while the producers run, so runs
	// are staged in the lanes the producers are staging in and the
	// spillway still overflows.
	stop := make(chan struct{})
	readmitted := make(chan struct{})
	go func() {
		defer close(readmitted)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if gated {
				s.readmitSpill(16, false)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	<-readmitted
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if p := s.Pending(); p != 0 {
		t.Fatalf("Pending = %d after Drain, want 0", p)
	}
	if _, err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if p := s.Pending(); p != 0 {
		t.Fatalf("Pending = %d after Stop, want 0", p)
	}

	st := s.Stats()
	ran := int64(0)
	for v := range runs {
		n := runs[v].Load()
		ran += int64(n)
		switch o := outcome[v]; {
		case o == 1+uint8(Shed) && n != 0:
			t.Fatalf("shed value %d ran %d times", v, n)
		case o != 0 && o != 1+uint8(Shed) && n != 1:
			t.Fatalf("accepted value %d ran %d times, want 1", v, n)
		case n > 1:
			t.Fatalf("value %d ran %d times", v, n)
		}
	}
	if want := total - st.Shed; ran != want {
		t.Fatalf("%d runs for %d submitted and %d shed tasks, want %d", ran, total, st.Shed, want)
	}
	if gated && (st.Deferred == 0 || st.Shed == 0 || st.Readmitted == 0) {
		t.Fatalf("deferred %d, shed %d, readmitted %d: the gated run must exercise all three",
			st.Deferred, st.Shed, st.Readmitted)
	}
	if !gated && st.Shed+st.Deferred+st.Readmitted != 0 {
		t.Fatalf("ungated run counted deferred %d, shed %d, readmitted %d", st.Deferred, st.Shed, st.Readmitted)
	}
}

// TestParkFlushesOutsideTheInjectorLock guards the lock order of the
// gated batch path. With one injector lane, a full spillway and a gate
// that admits only part of a batch, a producer in SubmitAllKOutcomes
// races Stop: Stop closes the submission gate and flushes the spillway,
// then the producer's next deferral finds the gate closed and flushes
// again (park's re-flush path), which locks the injector lane. Were the
// producer still holding that lock from its own batch — admission
// passes done under it — the re-flush could never take it, and neither
// could Stop's. The test must finish well inside its timeout with every
// accepted task run exactly once.
func TestParkFlushesOutsideTheInjectorLock(t *testing.T) {
	const spillCap, gate, batch = 4, 499, 64
	const trigger = int64(1000) // turned away by the gate: it is deferred
	var armed atomic.Bool
	var s *Scheduler[int64]
	stopped := make(chan error, 1)
	// Priority is read on admission, and by the relaxed lanes at push.
	// The armed read of the trigger is its admission: it starts Stop and
	// waits until Stop has closed the gate and emptied the spillway, so
	// that the trigger's own deferral takes the re-flush path.
	prio := func(v int64) int64 {
		if v == trigger && armed.CompareAndSwap(true, false) {
			go func() {
				_, err := s.Stop()
				stopped <- err
			}()
			for s.accepting.Load() || s.spill.Len() > 0 {
				time.Sleep(10 * time.Microsecond)
			}
		}
		return v
	}
	var runs [3 * trigger]atomic.Int32
	cfg := Config[int64]{
		Places:        1,
		Strategy:      Relaxed,
		Less:          intLess,
		Injectors:     1,
		Backpressure:  true,
		Priority:      prio,
		MaxPrio:       1<<20 - 1,
		SpillCap:      spillCap,
		AdaptInterval: time.Hour, // the test sets the gate itself
		Execute:       func(ctx *Ctx[int64], v int64) { runs[v].Add(1) },
		Seed:          3,
	}
	var err error
	if s, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.bpGate.Store(gate)

	accepted := map[int64]bool{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Fill the spillway and shed one more.
		full := []int64{trigger + 1, trigger + 2, trigger + 3, trigger + 4, trigger + 5}
		out := make([]Outcome, batch)
		if _, err := s.SubmitAllKOutcomes(0, full, out); !errors.Is(err, ErrShed) {
			t.Errorf("filling the spillway: err = %v, want ErrShed", err)
			return
		}
		for i, v := range full {
			if out[i] != Shed {
				accepted[v] = true
			}
		}
		if s.spill.Len() != spillCap {
			t.Errorf("spillway holds %d, want %d", s.spill.Len(), spillCap)
			return
		}
		// The racing batch: the trigger first, then admitted and
		// deferred tasks alternating.
		vs := make([]int64, batch)
		vs[0] = trigger
		for i := 1; i < batch; i++ {
			vs[i] = int64(i)
			if i%2 == 0 {
				vs[i] += 2 * trigger
			}
		}
		armed.Store(true)
		if _, err := s.SubmitAllKOutcomes(0, vs, out); err != nil && !errors.Is(err, ErrShed) {
			t.Errorf("racing batch: %v", err)
			return
		}
		if out[0] != Deferred {
			t.Errorf("the trigger's outcome is %d, want Deferred (the re-flush path)", out[0])
		}
		for i, v := range vs {
			if out[i] != Shed {
				accepted[v] = true
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("a producer racing Stop deadlocked: park's re-flush ran under an injector lock")
	}
	select {
	case err := <-stopped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Stop never returned")
	}
	if t.Failed() {
		return
	}
	for v := range runs {
		want := int32(0)
		if accepted[int64(v)] {
			want = 1
		}
		if n := runs[v].Load(); n != want {
			t.Fatalf("value %d ran %d times, want %d", v, n, want)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after Stop, want 0", s.Pending())
	}
}
