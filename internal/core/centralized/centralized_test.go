package centralized

import (
	"testing"

	"repro/internal/core"
	"repro/internal/core/dstest"
	"repro/internal/xrand"
)

func TestConformance(t *testing.T) {
	dstest.Run(t, "Centralized", func(opts core.Options[int64]) (core.DS[int64], error) {
		d, err := New(opts)
		if err != nil {
			return nil, err
		}
		return d, nil
	})
}

// TestConformanceKeyed runs the same suite, fixtures included, with the
// values' own integer projection set, so the local queues order by the
// cached key (pq.KeyHeap); the key agrees with Less, so nothing the
// contract promises may change.
func TestConformanceKeyed(t *testing.T) {
	dstest.Run(t, "CentralizedKeyed", func(opts core.Options[int64]) (core.DS[int64], error) {
		opts.Prio = func(v int64) int64 { return v }
		d, err := New(opts)
		if err != nil {
			return nil, err
		}
		return d, nil
	})
}

func TestConstructorValidation(t *testing.T) {
	if _, err := New(core.Options[int64]{Places: 0, Less: func(a, b int64) bool { return a < b }}); err == nil {
		t.Fatal("Places=0 accepted")
	}
	if _, err := New(core.Options[int64]{Places: 1}); err == nil {
		t.Fatal("nil Less accepted")
	}
}

// TestRhoRelaxationBound checks the §2.2 guarantee with a temporal oracle.
// Any item still sitting after the tail is among the last k items added
// (a window holds at most k insertions before the tail moves past it), so
// a pop may only ignore items from the last k insertions: the value it
// returns must be no worse than the minimum over live items excluding the
// k newest insertions. Pushes happen at place 0, pops alternate between
// places, all single-goroutine so the oracle is exact.
func TestRhoRelaxationBound(t *testing.T) {
	for _, k := range []int{1, 4, 32, 128} {
		d, err := New(core.Options[int64]{
			Places: 2,
			Less:   func(a, b int64) bool { return a < b },
			Seed:   uint64(k),
		})
		if err != nil {
			t.Fatal(err)
		}
		r := xrand.New(uint64(k) * 31)
		type rec struct {
			v    int64
			live bool
		}
		var order []rec // insertion order
		liveCount := 0
		pop := func(pl int) {
			v, ok := d.Pop(pl)
			if !ok {
				return
			}
			// Oracle: min over live items excluding the k newest insertions.
			excluded := 0
			oldestAllowed := int64(1) << 62
			for i := len(order) - 1; i >= 0; i-- {
				if excluded < k {
					excluded++ // the k newest insertions may be ignored
					continue
				}
				if order[i].live && order[i].v < oldestAllowed {
					oldestAllowed = order[i].v
				}
			}
			if v > oldestAllowed {
				t.Fatalf("k=%d: pop at place %d returned %d but non-ignorable live item %d exists",
					k, pl, v, oldestAllowed)
			}
			for i := range order {
				if order[i].live && order[i].v == v {
					order[i].live = false
					break
				}
			}
			liveCount--
		}
		for step := 0; step < 6000; step++ {
			if liveCount == 0 || r.Intn(2) == 0 {
				// Unique values: random priority in the high bits, step
				// number in the low bits so the oracle is unambiguous.
				v := int64(r.Intn(1<<15))<<16 | int64(step&0xffff)
				d.Push(0, k, v)
				order = append(order, rec{v: v, live: true})
				liveCount++
			} else {
				pop(r.Intn(2))
			}
		}
	}
}

func TestTailAdvances(t *testing.T) {
	d, err := New(core.Options[int64]{
		Places: 1,
		Less:   func(a, b int64) bool { return a < b },
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	for i := int64(0); i < 100; i++ {
		d.Push(0, k, i)
	}
	// 100 pushes with window k=8: the tail must have advanced repeatedly,
	// and every item must sit within k of some historical tail, hence
	// tail >= pushes - k.
	if tail := d.Tail(); tail < 100-k || tail > 100 {
		t.Fatalf("tail = %d after 100 pushes with k=%d", tail, k)
	}
	if s := d.Stats(); s.TailAdvances == 0 {
		t.Fatal("no tail advances recorded")
	}
}

// TestProbeFindsTailWindowTasks: after draining the priority queue, tasks
// remaining in the k-window after the tail must be reachable through the
// random probe (this is the path that Listing 2's literal condition would
// have broken; see docs/ARCHITECTURE.md, "Departures from the paper").
func TestProbeFindsTailWindowTasks(t *testing.T) {
	d, err := New(core.Options[int64]{
		Places: 2,
		Less:   func(a, b int64) bool { return a < b },
		KMax:   512,
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Push k=kmax items from place 0; all stay inside the first window, so
	// the tail never advances and place 1's scan sees nothing below tail.
	const n = 20
	for i := int64(0); i < n; i++ {
		d.Push(0, 512, i)
	}
	if d.Tail() != 0 {
		t.Fatalf("tail = %d, want 0", d.Tail())
	}
	got := 0
	for tries := 0; tries < 1<<17 && got < n; tries++ {
		if _, ok := d.Pop(1); ok {
			got++
		}
	}
	if got != n {
		t.Fatalf("place 1 probed out %d of %d tail-window tasks", got, n)
	}
	if s := d.Stats(); s.ProbeHits != n {
		t.Fatalf("ProbeHits = %d, want %d", s.ProbeHits, n)
	}
}

func TestSegmentsRetireUnderChurn(t *testing.T) {
	d, err := New(core.Options[int64]{
		Places: 1,
		Less:   func(a, b int64) bool { return a < b },
		KMax:   64,
		Seed:   6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 300; round++ {
		for i := int64(0); i < 50; i++ {
			d.Push(0, 16, i)
		}
		for i := 0; i < 50; i++ {
			if _, ok := d.Pop(0); !ok {
				i--
			}
		}
	}
	if segs := d.Segments(); segs > 8 {
		t.Fatalf("retained %d segments after churn; retirement is stuck", segs)
	}
}

func TestPerTaskKCoexistence(t *testing.T) {
	// Tasks with different k values coexist (§1: "choosing the value of k
	// per task, allowing kernels with different ordering requirements to
	// coexecute"). Everything must still drain exactly once.
	d, err := New(core.Options[int64]{
		Places: 2,
		Less:   func(a, b int64) bool { return a < b },
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(8)
	ks := []int{1, 2, 16, 512}
	const n = 2000
	for i := int64(0); i < n; i++ {
		d.Push(int(i)%2, ks[r.Intn(len(ks))], i)
	}
	seen := map[int64]bool{}
	fails := 0
	for len(seen) < n && fails < 1<<16 {
		pl := r.Intn(2)
		if v, ok := d.Pop(pl); ok {
			if seen[v] {
				t.Fatalf("duplicate %d", v)
			}
			seen[v] = true
			fails = 0
		} else {
			fails++
		}
	}
	if len(seen) != n {
		t.Fatalf("drained %d of %d", len(seen), n)
	}
}
