package relaxed

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/core/dstest"
	"repro/internal/xrand"
)

func less(a, b int64) bool { return a < b }

func TestConformanceSampleAll(t *testing.T) {
	// SampleAll pops are exact in quiescent states, so the structure
	// passes the full suite including single-place strict ordering.
	dstest.Run(t, "Relaxed", func(opts core.Options[int64]) (core.DS[int64], error) {
		d, err := New(opts)
		if err != nil {
			return nil, err
		}
		return d, nil
	})
}

func TestConformanceSampleTwo(t *testing.T) {
	// SampleTwo is only probabilistically ordered, so the strict local
	// ordering check is skipped (see Flags.NoLocalOrdering).
	dstest.RunFlags(t, "RelaxedSampleTwo", func(opts core.Options[int64]) (core.DS[int64], error) {
		d, err := NewWithConfig(opts, Config{Mode: SampleTwo})
		if err != nil {
			return nil, err
		}
		return d, nil
	}, dstest.Flags{NoLocalOrdering: true})
}

func TestConformanceStickyBatched(t *testing.T) {
	// The sticky, batched configuration must still satisfy the full
	// exactly-once contract (including the new batch cases); only strict
	// local ordering is waived, since a sticky pop intentionally stays on
	// its lane instead of re-sampling the global minimum.
	dstest.RunFlags(t, "RelaxedSticky", func(opts core.Options[int64]) (core.DS[int64], error) {
		d, err := NewWithConfig(opts, Config{Mode: SampleTwo, Stickiness: 4})
		if err != nil {
			return nil, err
		}
		return d, nil
	}, dstest.Flags{NoLocalOrdering: true})
}

// TestStickyPushAffinity pins the stickiness mechanics: with stickiness
// S, a place's first S pushes land in one lane (a single restick), so a
// single PopKInto drains them all, in order, under one lock acquisition.
func TestStickyPushAffinity(t *testing.T) {
	const S = 8
	d, err := NewWithConfig(core.Options[int64]{Places: 1, Less: less, Seed: 3},
		Config{Lanes: 16, Mode: SampleTwo, Stickiness: S})
	if err != nil {
		t.Fatal(err)
	}
	if d.Stickiness() != S {
		t.Fatalf("Stickiness() = %d, want %d", d.Stickiness(), S)
	}
	vals := []int64{7, 3, 9, 1, 8, 2, 6, 5}
	for _, v := range vals {
		d.Push(0, 0, v)
	}
	got := make([]int64, S)
	if n := d.PopKInto(0, got); n != S {
		t.Fatalf("PopKInto obtained %d of %d: sticky pushes were scattered across lanes", n, S)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("batch out of order at %d: %d after %d (one lane is a strict PQ)", i, got[i], got[i-1])
		}
	}
	s := d.Stats()
	if s.Resticks != 2 {
		// One restick for the push affinity episode, one for the pop.
		t.Fatalf("Stats.Resticks = %d, want 2", s.Resticks)
	}
	if s.BatchPops != 1 || s.Pops != S || s.Pushes != S {
		t.Fatalf("batch counters off: %+v", s)
	}
}

// TestBatchCounters pins the native batch accounting: PushK counts one
// BatchPushes episode and len(vs) Pushes; PopKInto counts one BatchPops
// episode and the tasks it obtained — but a one-slot fill is exactly Pop
// and moves only Pops, and a zero-length buffer moves nothing.
func TestBatchCounters(t *testing.T) {
	d, err := NewWithConfig(core.Options[int64]{Places: 1, Less: less, Seed: 4},
		Config{Lanes: 4, Stickiness: 2})
	if err != nil {
		t.Fatal(err)
	}
	d.PushK(0, 0, []int64{5, 4, 3, 2, 1})
	d.PushK(0, 0, nil) // no-op, no counter movement
	if s := d.Stats(); s.Pushes != 5 || s.BatchPushes != 1 {
		t.Fatalf("after PushK: %+v", s)
	}
	buf := make([]int64, 3)
	if got := d.PopKInto(0, buf); got != 3 {
		t.Fatalf("PopKInto(3 slots) = %d, buf %v", got, buf)
	}
	if got := d.PopKInto(0, buf[:0]); got != 0 {
		t.Fatalf("PopKInto(0 slots) = %d, want 0", got)
	}
	if s := d.Stats(); s.Pops != 3 || s.BatchPops != 1 {
		t.Fatalf("after PopKInto: %+v", s)
	}
	if got := d.PopKInto(0, buf[:1]); got != 1 {
		t.Fatalf("PopKInto(1 slot) = %d", got)
	}
	if s := d.Stats(); s.Pops != 4 || s.BatchPops != 1 {
		t.Fatalf("a one-slot fill must count as a plain pop: %+v", s)
	}
}

func TestSingleLaneIsStrict(t *testing.T) {
	d, err := NewWithConfig(core.Options[int64]{Places: 1, Less: less, Seed: 1}, Config{Lanes: 1, Mode: SampleTwo})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(2)
	const n = 1000
	want := make([]int64, n)
	for i := range want {
		want[i] = int64(r.Intn(1 << 20))
		d.Push(0, 0, want[i])
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := 0; i < n; i++ {
		v, ok := d.Pop(0)
		if !ok || v != want[i] {
			t.Fatalf("pop %d = %v,%v want %v (one lane must be a strict PQ)", i, v, ok, want[i])
		}
	}
}

// TestQuiescentExactness is the structural property in its sequential
// limit: with no concurrent operations in flight, SampleAll pops must
// return the exact global minimum across all lanes, for any lane count.
func TestQuiescentExactness(t *testing.T) {
	for _, lanes := range []int{1, 2, 4, 16} {
		d, err := NewWithConfig(core.Options[int64]{Places: 1, Less: less, Seed: uint64(lanes)}, Config{Lanes: lanes, Mode: SampleAll})
		if err != nil {
			t.Fatal(err)
		}
		r := xrand.New(uint64(lanes) * 7)
		live := map[int64]bool{}
		next := int64(0)
		for step := 0; step < 8000; step++ {
			if len(live) == 0 || r.Intn(2) == 0 {
				v := int64(r.Intn(1<<15))<<16 | next
				next++
				d.Push(0, 0, v)
				live[v] = true
			} else {
				v, ok := d.Pop(0)
				if !ok {
					t.Fatalf("lanes=%d spurious failure with %d live items and no concurrency",
						lanes, len(live))
				}
				for l := range live {
					if l < v {
						t.Fatalf("lanes=%d pop returned %d but %d is live and smaller", lanes, v, l)
					}
				}
				delete(live, v)
			}
		}
	}
}

// TestLoneTaskFoundFromEveryPlace pins "work is never stranded" with no
// concurrency to hide behind: one task pushed by place 0 is returned by
// the first Pop of any other place — when the sampled lanes advertise
// empty, the sweep over every lane finds it — so no pop ever fails.
func TestLoneTaskFoundFromEveryPlace(t *testing.T) {
	for _, places := range []int{2, 7} {
		for _, mode := range []SampleMode{SampleAll, SampleTwo} {
			for _, keyed := range []bool{false, true} {
				for _, stick := range []int{1, 8} {
					for seed := uint64(1); seed <= 64; seed++ {
						var num NumericConfig[int64]
						if keyed {
							num.Prio = func(v int64) int64 { return v }
						}
						d, err := NewWithNumeric(core.Options[int64]{Places: places, Less: less, Seed: seed},
							Config{Mode: mode, Stickiness: stick}, num)
						if err != nil {
							t.Fatal(err)
						}
						for pl := 1; pl < places; pl++ {
							want := int64(pl)
							d.Push(0, 0, want)
							if v, ok := d.Pop(pl); !ok || v != want {
								t.Fatalf("P=%d mode=%d keyed=%v S=%d seed=%d: first Pop(%d) = %v,%v, want %d",
									places, mode, keyed, stick, seed, pl, v, ok, want)
							}
						}
						if f := d.Stats().PopFailures; f != 0 {
							t.Fatalf("P=%d mode=%d keyed=%v S=%d seed=%d: PopFailures = %d, want 0",
								places, mode, keyed, stick, seed, f)
						}
					}
				}
			}
		}
	}
}

// TestSampleTwoRankErrorIsSmallOnAverage characterizes the probabilistic
// mode: average rank error well below the lane count.
func TestSampleTwoRankErrorIsSmallOnAverage(t *testing.T) {
	const lanes = 8
	d, err := NewWithConfig(core.Options[int64]{Places: 1, Less: less, Seed: 6}, Config{Lanes: lanes, Mode: SampleTwo})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(7)
	live := map[int64]bool{}
	next := int64(0)
	totalRank, pops := 0, 0
	for step := 0; step < 20000; step++ {
		if len(live) < 64 || r.Intn(2) == 0 {
			v := int64(r.Intn(1<<15))<<16 | next
			next++
			d.Push(0, 0, v)
			live[v] = true
		} else {
			v, ok := d.Pop(0)
			if !ok {
				continue
			}
			rank := 0
			for l := range live {
				if l < v {
					rank++
				}
			}
			totalRank += rank
			pops++
			delete(live, v)
		}
	}
	if pops == 0 {
		t.Fatal("no pops")
	}
	avg := float64(totalRank) / float64(pops)
	if avg > 2*lanes {
		t.Fatalf("average rank error %.2f far exceeds lane count %d; sampling is broken", avg, lanes)
	}
}

// TestAgeIndependence distinguishes structural from temporal relaxation:
// an item's age never forces synchronization — there are no publishes or
// tail advances — and an arbitrarily old, low-priority item is simply
// returned when it becomes the minimum, exactly once.
func TestAgeIndependence(t *testing.T) {
	d, err := NewWithConfig(core.Options[int64]{Places: 1, Less: less, Seed: 5}, Config{Lanes: 2, Mode: SampleAll})
	if err != nil {
		t.Fatal(err)
	}
	const old = int64(1) << 40 // worst priority, pushed first
	d.Push(0, 0, old)
	for i := int64(0); i < 1000; i++ {
		d.Push(0, 0, i)
		if v, ok := d.Pop(0); !ok || v == old {
			t.Fatalf("pop = %v,%v: the old worst-priority item must not surface "+
				"while better items are live", v, ok)
		}
	}
	v, ok := d.Pop(0)
	if !ok || v != old {
		t.Fatalf("final pop = %v,%v, want the old item %d", v, ok, old)
	}
	if s := d.Stats(); s.Publishes != 0 || s.TailAdvances != 0 {
		t.Fatal("structural queue must have no temporal bookkeeping counters")
	}
}

func TestLanesAccessor(t *testing.T) {
	d, err := New(core.Options[int64]{Places: 3, Less: less})
	if err != nil {
		t.Fatal(err)
	}
	if d.Lanes() != 3*DefaultLaneFactor {
		t.Fatalf("Lanes = %d, want %d", d.Lanes(), 3*DefaultLaneFactor)
	}
}

// TestSetStickinessLive pins the adaptive-controller hook: S is
// swappable at runtime, clamped at 1, and the new budget is what a
// place's next lane selection gets. A place mid-budget keeps its old
// grant (the swap is picked up at the next re-selection, not
// retroactively).
func TestSetStickinessLive(t *testing.T) {
	d, err := NewWithConfig(core.Options[int64]{Places: 1, Less: less, Seed: 9},
		Config{Lanes: 8, Mode: SampleTwo, Stickiness: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Stickiness() != 1 {
		t.Fatalf("initial Stickiness = %d", d.Stickiness())
	}
	d.SetStickiness(4)
	if d.Stickiness() != 4 {
		t.Fatalf("after SetStickiness(4): %d", d.Stickiness())
	}
	// Four pushes under S=4: one lane selection, so one PopKInto drains all.
	for _, v := range []int64{4, 2, 3, 1} {
		d.Push(0, 0, v)
	}
	if got := d.PopKInto(0, make([]int64, 4)); got != 4 {
		t.Fatalf("PopKInto after live S=4 got %d of 4: pushes scattered", got)
	}
	d.SetStickiness(0) // clamps to the unsticky floor
	if d.Stickiness() != 1 {
		t.Fatalf("SetStickiness(0) clamped to %d, want 1", d.Stickiness())
	}
}

// TestSetStickinessConcurrent swaps S from a tuner goroutine while
// places push and pop — the -race proof of the controller's apply path,
// plus exactly-once delivery across the swaps.
func TestSetStickinessConcurrent(t *testing.T) {
	const places = 4
	perPlace := 20000
	if testing.Short() {
		perPlace = 5000
	}
	d, err := NewWithConfig(core.Options[int64]{Places: places, Less: less, Seed: 10},
		Config{Mode: SampleTwo, Stickiness: 1})
	if err != nil {
		t.Fatal(err)
	}
	stopTune := make(chan struct{})
	tunerDone := make(chan struct{})
	go func() {
		defer close(tunerDone)
		s := 1
		for {
			select {
			case <-stopTune:
				return
			default:
				s = s%16 + 1
				d.SetStickiness(s)
				_ = d.ContentionTotal()
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	var popped atomic.Int64
	for pl := 0; pl < places; pl++ {
		wg.Add(1)
		go func(pl int) {
			defer wg.Done()
			r := xrand.New(uint64(pl) + 77)
			sent, fails := 0, 0
			for sent < perPlace || fails < 1<<13 {
				if sent < perPlace && r.Intn(2) == 0 {
					d.Push(pl, 0, int64(pl*perPlace+sent))
					sent++
					continue
				}
				if _, ok := d.Pop(pl); ok {
					popped.Add(1)
					fails = 0
				} else {
					fails++
				}
			}
		}(pl)
	}
	wg.Wait()
	close(stopTune)
	<-tunerDone
	// Quiescent drain: every pushed task must surface exactly once in
	// total (count only; the dstest suite pins per-value delivery).
	fails := 0
	for fails < 1<<14 {
		if _, ok := d.Pop(0); ok {
			popped.Add(1)
			fails = 0
		} else {
			fails++
		}
	}
	if got := popped.Load(); got != int64(places*perPlace) {
		t.Fatalf("delivered %d of %d across live S swaps", got, places*perPlace)
	}
}

// TestLaneContentionSampling pins the contention counter the adaptive
// controller reads: a quiescent single-place run never fails a
// try-lock.
func TestLaneContentionSampling(t *testing.T) {
	d, err := NewWithConfig(core.Options[int64]{Places: 2, Less: less, Seed: 11},
		Config{Lanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		d.Push(0, 0, i)
		d.Pop(0)
	}
	if d.ContentionTotal() != 0 {
		t.Fatalf("ContentionTotal = %d on an uncontended run", d.ContentionTotal())
	}
}

// TestConformanceNumeric runs the full suite, strict single-place
// ordering included, over the keyed lanes: with a projection every lane
// is a pq.KeyHeap ordered by the cached key and Less is never
// consulted.
func TestConformanceNumeric(t *testing.T) {
	dstest.Run(t, "RelaxedNumeric", func(opts core.Options[int64]) (core.DS[int64], error) {
		return NewWithNumeric(opts, Config{}, NumericConfig[int64]{Prio: func(v int64) int64 { return v }})
	})
}

// TestKeyedLanesMatchLessLanes drives a Less-only structure and a keyed
// one, same seed, through one scripted single-goroutine mix of Push,
// PushK, Pop and PopKInto over two places. With distinct priorities the
// two orders agree everywhere — lane heaps, advertised minima, sampling
// — and both draw the same random numbers, so every pop must return the
// same tasks and the counters must end identical.
func TestKeyedLanesMatchLessLanes(t *testing.T) {
	for _, mode := range []SampleMode{SampleAll, SampleTwo} {
		for _, stick := range []int{1, 4} {
			opts := core.Options[int64]{Places: 2, Less: less, Seed: 17}
			cfg := Config{Mode: mode, Stickiness: stick}
			lessOnly, err := NewWithConfig(opts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			keyed, err := NewWithNumeric(opts, cfg, NumericConfig[int64]{Prio: func(v int64) int64 { return v }})
			if err != nil {
				t.Fatal(err)
			}
			r := xrand.New(23)
			// Distinct priorities, negative ones included: a shuffled run
			// of integers around zero.
			prios := make([]int64, 6000)
			for i := range prios {
				prios[i] = int64(i) - 3000
			}
			for i := len(prios) - 1; i > 0; i-- {
				j := r.Intn(i + 1)
				prios[i], prios[j] = prios[j], prios[i]
			}
			var a, b [8]int64
			for step := 0; len(prios) > 0 || step < 20000; step++ {
				pl := r.Intn(2)
				switch op := r.Intn(5); {
				case op == 0 && len(prios) > 0:
					lessOnly.Push(pl, 0, prios[0])
					keyed.Push(pl, 0, prios[0])
					prios = prios[1:]
				case op == 1 && len(prios) > 0:
					n := min(1+r.Intn(8), len(prios))
					lessOnly.PushK(pl, 0, prios[:n])
					keyed.PushK(pl, 0, prios[:n])
					prios = prios[n:]
				case op == 2:
					va, oka := lessOnly.Pop(pl)
					vb, okb := keyed.Pop(pl)
					if va != vb || oka != okb {
						t.Fatalf("mode %v, stickiness %d, step %d: Pop = %d,%v on Less lanes, %d,%v on keyed lanes",
							mode, stick, step, va, oka, vb, okb)
					}
				case op >= 3:
					n := 1 + r.Intn(8)
					na, nb := lessOnly.PopKInto(pl, a[:n]), keyed.PopKInto(pl, b[:n])
					if na != nb || a != b {
						t.Fatalf("mode %v, stickiness %d, step %d: PopKInto = %v on Less lanes, %v on keyed lanes",
							mode, stick, step, a[:na], b[:nb])
					}
				}
			}
			if sa, sb := lessOnly.Stats(), keyed.Stats(); sa != sb {
				t.Errorf("mode %v, stickiness %d: Stats differ:\nLess  %+v\nkeyed %+v", mode, stick, sa, sb)
			} else if sa.Pops == 0 || sa.BatchPops == 0 || sa.PopFailures == 0 {
				t.Errorf("mode %v, stickiness %d: script missed a path: %+v", mode, stick, sa)
			}
		}
	}
}

// TestIdleLanesStaySmall pins what an idle lane costs: a keyed 8-lane
// structure that has never held more than 4 tasks per lane owns under
// 16 KB of lane storage. (A lane heap that reserved its first chunk on
// the first push — 160 KB a lane at 40-byte entries — put 60 % on the
// peak heap of a lightly loaded server.)
func TestIdleLanesStaySmall(t *testing.T) {
	type task struct {
		due      int64
		id, prio int32
		fin      *int
		_        [8]byte
	}
	d, err := NewWithNumeric(core.Options[task]{Places: 2, Less: func(a, b task) bool { return a.prio < b.prio }, Seed: 1},
		Config{Mode: SampleTwo, Stickiness: 4},
		NumericConfig[task]{Prio: func(v task) int64 { return int64(v.prio) }})
	if err != nil {
		t.Fatal(err)
	}
	if d.Lanes() != 8 {
		t.Fatalf("%d lanes, want 8", d.Lanes())
	}
	buf := make([]task, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for round := 0; round < 200; round++ {
		pl := round % 2
		for i := range buf {
			buf[i] = task{prio: int32(round*4 + i)}
		}
		d.PushK(pl, 0, buf)
		for got, spin := 0, 0; got < len(buf) && spin < 1000; spin++ {
			got += d.PopKInto(pl, buf[got:])
		}
	}
	runtime.ReadMemStats(&after)
	// Everything allocated since construction is lane storage: the loop
	// itself allocates nothing.
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 16<<10 {
		t.Errorf("8 lanes that held at most 4 tasks each allocated %d bytes, want < 16 KB", grown)
	}
	if st := d.Stats(); st.Pops != 800 {
		t.Fatalf("popped %d of 800", st.Pops)
	}
}

// TestNumericConfigValidation pins that NumericConfig has no error
// case of its own: MaxPrio is read by nothing, so no bound on the
// projection's domain — none, a huge one, or one without a projection —
// keeps the structure from being built.
func TestNumericConfigValidation(t *testing.T) {
	opts := core.Options[int64]{Places: 1, Less: less, Seed: 1}
	id := func(v int64) int64 { return v }
	for _, num := range []NumericConfig[int64]{
		{Prio: id},
		{Prio: id, MaxPrio: 1 << 40},
		{MaxPrio: 10},
	} {
		if _, err := NewWithNumeric(opts, Config{}, num); err != nil {
			t.Fatalf("Prio set: %v, MaxPrio %d: %v", num.Prio != nil, num.MaxPrio, err)
		}
	}
}

// warmNumeric builds a single-place numeric structure and runs enough
// push/pop traffic through it that all lane storage reaches
// steady-state capacity.
func warmNumeric(t *testing.T) *DS[int64] {
	t.Helper()
	d, err := NewWithNumeric(core.Options[int64]{Places: 1, Less: less, Seed: 9},
		Config{Mode: SampleAll, Stickiness: 4},
		NumericConfig[int64]{Prio: func(v int64) int64 { return v }})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 2048; i++ {
			d.Push(0, 0, int64(i%1024))
		}
		got := 0
		buf := make([]int64, 64)
		for spin := 0; got < 2048 && spin < 100000; spin++ {
			got += d.PopKInto(0, buf)
		}
		if got != 2048 {
			t.Fatalf("warmup drained %d of 2048", got)
		}
	}
	return d
}

// TestNumericHotPathAllocFree pins the zero-allocation contract of the
// numeric serve path: once warmNumeric has grown the keyed heaps'
// backing arrays, steady-state Push + PopKInto allocates nothing, and
// neither does an empty or a multi-task PopKInto. (The boxed Less-only
// path advertises minima through pointer stores and is allowed to
// allocate; it is not under test.)
func TestNumericHotPathAllocFree(t *testing.T) {
	d := warmNumeric(t)
	buf := make([]int64, 8)
	// Single-threaded, so pops cannot fail spuriously: the pushed
	// element is advertised and every try-lock is free.
	allocs := testing.AllocsPerRun(1000, func() {
		d.Push(0, 0, 512)
		if got := d.PopKInto(0, buf[:1]); got != 1 {
			t.Fatalf("PopKInto got %d", got)
		}
	})
	if allocs != 0 {
		t.Errorf("Push+PopKInto allocs = %v, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		if got := d.PopKInto(0, buf); got != 0 {
			t.Fatalf("PopKInto on empty obtained %d tasks", got)
		}
	})
	if allocs != 0 {
		t.Errorf("empty PopKInto allocs = %v, want 0", allocs)
	}
	// Stickiness 4 spreads 8 pushes over 2–3 lanes and PopKInto
	// drains one lane per call; the whole multi-call drain through
	// one reused buffer allocates nothing.
	allocs = testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8; i++ {
			d.Push(0, 0, int64(i))
		}
		got := 0
		for spin := 0; got < 8 && spin < 1000; spin++ {
			got += d.PopKInto(0, buf)
		}
		if got != 8 {
			t.Fatalf("drained %d of 8", got)
		}
	})
	if allocs != 0 {
		t.Errorf("batch PopKInto drain allocs = %v, want 0", allocs)
	}
}

// TestMaxPrioTaskIsPopped: a task whose numeric priority is MaxInt64 —
// the value an empty lane advertises — must still be found, by the
// samplers and by the sweeps, through the single and the batch pop. A
// lane holding it used to read as empty to all of them, so the task was
// never returned. The keyed lanes order by the projection as it stands,
// so the other end of the domain is covered too: a negative key and
// MinInt64.
func TestMaxPrioTaskIsPopped(t *testing.T) {
	for _, mode := range []SampleMode{SampleAll, SampleTwo} {
		for _, batch := range []bool{false, true} {
			for _, key := range []int64{math.MaxInt64, -1, math.MinInt64} {
				d, err := NewWithNumeric(core.Options[int64]{Places: 1, Less: less, Seed: 3},
					Config{Mode: mode},
					NumericConfig[int64]{Prio: func(v int64) int64 { return v }})
				if err != nil {
					t.Fatal(err)
				}
				d.Push(0, 0, key)
				var got int64
				ok := false
				// Single-threaded: the sweep after the sampling rounds
				// finds any advertised lane, so one pop must succeed; the
				// bound only keeps a regression from looping forever.
				for try := 0; try < 1000 && !ok; try++ {
					if batch {
						var buf [4]int64
						if n := d.PopKInto(0, buf[:]); n > 0 {
							got, ok = buf[0], true
						}
					} else {
						got, ok = d.Pop(0)
					}
				}
				if !ok || got != key {
					t.Errorf("mode %v, batch %v: pop = %d, %v; the task with key %d was never returned",
						mode, batch, got, ok, key)
				}
			}
		}
	}
}
