package hybrid

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/core/dstest"
	"repro/internal/xrand"
)

// factory builds the structure for the conformance suite, with the
// values' own integer projection set when keyed.
func factory(keyed bool) dstest.Factory {
	return func(opts core.Options[int64]) (core.DS[int64], error) {
		if keyed {
			opts.Prio = func(v int64) int64 { return v }
		}
		d, err := New(opts)
		if err != nil {
			return nil, err
		}
		return d, nil
	}
}

func TestConformance(t *testing.T) {
	dstest.Run(t, "Hybrid", factory(false))
}

// TestConformanceKeyed runs the same suite, fixtures included, on local
// queues ordered by the cached key (pq.KeyWindow). The key agrees with
// Less, so nothing the contract promises may change.
func TestConformanceKeyed(t *testing.T) {
	dstest.Run(t, "HybridKeyHeap", factory(true))
}

// TestNoSpyOwnerDrain pins the no-spy ablation's intentional liveness
// trade-off: without spying, the up-to-k unpublished tasks of a place can
// only run at their birth place, so availability to *other* places is not
// guaranteed (which is why the full conformance suite does not apply) —
// but as long as every place keeps popping, as scheduler workers do,
// nothing is lost.
func TestNoSpyOwnerDrain(t *testing.T) {
	d, err := NewNoSpy(core.Options[int64]{
		Places: 3,
		Less:   func(a, b int64) bool { return a < b },
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const perPlace = 200
	for pl := 0; pl < 3; pl++ {
		for i := int64(0); i < perPlace; i++ {
			d.Push(pl, 16, int64(pl)*perPlace+i)
		}
	}
	// Each place drains with everyone participating: all tasks surface.
	seen := map[int64]bool{}
	fails := 0
	for len(seen) < 3*perPlace && fails < 1<<15 {
		progressed := false
		for pl := 0; pl < 3; pl++ {
			if v, ok := d.Pop(pl); ok {
				if seen[v] {
					t.Fatalf("duplicate %d", v)
				}
				seen[v] = true
				progressed = true
			}
		}
		if !progressed {
			fails++
		}
	}
	if len(seen) != 3*perPlace {
		t.Fatalf("owner-inclusive drain got %d of %d", len(seen), 3*perPlace)
	}
	if s := d.Stats(); s.Spies != 0 && s.SpyHits != 0 {
		t.Fatalf("no-spy variant spied: %+v", s)
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := New(core.Options[int64]{Places: -1, Less: func(a, b int64) bool { return a < b }}); err == nil {
		t.Fatal("Places=-1 accepted")
	}
	if _, err := New(core.Options[int64]{Places: 2}); err == nil {
		t.Fatal("nil Less accepted")
	}
}

func TestPublishEveryK(t *testing.T) {
	d, err := New(core.Options[int64]{
		Places: 2,
		Less:   func(a, b int64) bool { return a < b },
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	for i := int64(0); i < 100; i++ {
		d.Push(0, k, i)
	}
	// remaining_k = min(remaining−1, k): the first push sets the budget to
	// k, so a publish happens after k+1 pushes, then every k+1 thereafter.
	if s := d.Stats(); s.Publishes != 100/(k+1) {
		t.Fatalf("Publishes = %d, want %d", s.Publishes, 100/(k+1))
	}
}

func TestKZeroPublishesImmediately(t *testing.T) {
	d, err := New(core.Options[int64]{
		Places: 2,
		Less:   func(a, b int64) bool { return a < b },
		Seed:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 25; i++ {
		d.Push(0, 0, i)
	}
	if s := d.Stats(); s.Publishes != 25 {
		t.Fatalf("Publishes = %d, want 25 (k=0 forces immediate publication)", s.Publishes)
	}
	// With everything published, place 1 must see all tasks through the
	// global list alone, in priority order, without spying.
	for want := int64(0); want < 25; want++ {
		v, ok := d.Pop(1)
		if !ok || v != want {
			t.Fatalf("pop %d = %v,%v", want, v, ok)
		}
	}
	if s := d.Stats(); s.Spies != 0 {
		t.Fatalf("Spies = %d, want 0", s.Spies)
	}
}

// TestStrictestTaskDictatesBudget: remaining_k = min(remaining_k−1, k)
// means a single k=2 task forces publication within two further pushes
// even when every other task uses a huge k.
func TestStrictestTaskDictatesBudget(t *testing.T) {
	d, err := New(core.Options[int64]{
		Places: 2,
		Less:   func(a, b int64) bool { return a < b },
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		d.Push(0, 1<<30, i)
	}
	if s := d.Stats(); s.Publishes != 0 {
		t.Fatalf("Publishes = %d before strict task", s.Publishes)
	}
	d.Push(0, 2, 1000)
	if s := d.Stats(); s.Publishes != 0 {
		t.Fatalf("strict task published too early")
	}
	d.Push(0, 1<<30, 1001)
	d.Push(0, 1<<30, 1002)
	if s := d.Stats(); s.Publishes != 1 {
		t.Fatalf("Publishes = %d, want 1 (budget of the k=2 task exhausted)", s.Publishes)
	}
}

func TestSpyLeavesTasksWithOwner(t *testing.T) {
	d, err := New(core.Options[int64]{
		Places: 3,
		Less:   func(a, b int64) bool { return a < b },
		Seed:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unpublished tasks at place 0 (large k, fewer pushes than budget).
	for i := int64(0); i < 20; i++ {
		d.Push(0, 1<<20, i)
	}
	// Another place pops them through spying only.
	got := 0
	for tries := 0; tries < 1<<12 && got < 20; tries++ {
		if _, ok := d.Pop(1); ok {
			got++
		}
	}
	if got != 20 {
		t.Fatalf("place 1 spied out %d of 20 tasks", got)
	}
	s := d.Stats()
	if s.SpyHits == 0 {
		t.Fatal("no successful spies recorded")
	}
	if s.Publishes != 0 {
		t.Fatalf("Publishes = %d, want 0", s.Publishes)
	}
}

// TestRhoRelaxationBoundPerPlace: the hybrid guarantee is ρ = P·k — each
// place may hide at most its own k newest insertions. The oracle excludes,
// per place, the k newest insertions made by that place.
func TestRhoRelaxationBoundPerPlace(t *testing.T) {
	const places = 3
	for _, k := range []int{1, 8, 64} {
		d, err := New(core.Options[int64]{
			Places: places,
			Less:   func(a, b int64) bool { return a < b },
			Seed:   uint64(k),
		})
		if err != nil {
			t.Fatal(err)
		}
		r := xrand.New(uint64(k) * 17)
		type rec struct {
			v    int64
			live bool
		}
		hist := make([][]rec, places) // per-place insertion order
		liveCount := 0
		step := 0
		pop := func(pl int) {
			v, ok := d.Pop(pl)
			if !ok {
				return
			}
			oldestAllowed := int64(1) << 62
			for p := 0; p < places; p++ {
				excluded := 0
				for i := len(hist[p]) - 1; i >= 0; i-- {
					if excluded < k {
						excluded++
						continue
					}
					if hist[p][i].live && hist[p][i].v < oldestAllowed {
						oldestAllowed = hist[p][i].v
					}
				}
			}
			if v > oldestAllowed {
				t.Fatalf("k=%d: pop at %d returned %d; non-ignorable live item %d exists",
					k, pl, v, oldestAllowed)
			}
			for p := 0; p < places; p++ {
				for i := range hist[p] {
					if hist[p][i].live && hist[p][i].v == v {
						hist[p][i].live = false
						liveCount--
						return
					}
				}
			}
			t.Fatalf("popped unknown value %d", v)
		}
		for step = 0; step < 6000; step++ {
			pl := r.Intn(places)
			if liveCount == 0 || r.Intn(2) == 0 {
				v := int64(r.Intn(1<<15))<<16 | int64(step&0xffff)
				d.Push(pl, k, v)
				hist[pl] = append(hist[pl], rec{v: v, live: true})
				liveCount++
			} else {
				pop(pl)
			}
		}
	}
}

func TestSinglePlaceNoSpy(t *testing.T) {
	d, err := New(core.Options[int64]{
		Places: 1,
		Less:   func(a, b int64) bool { return a < b },
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Push(0, 100, 1)
	if v, ok := d.Pop(0); !ok || v != 1 {
		t.Fatalf("Pop = %v,%v", v, ok)
	}
	if _, ok := d.Pop(0); ok {
		t.Fatal("pop succeeded on empty single-place structure")
	}
}

func TestBlockChainGrowth(t *testing.T) {
	// More pushes than one block holds, without publication: the local
	// list must chain blocks and spying must traverse all of them.
	d, err := New(core.Options[int64]{
		Places: 2,
		Less:   func(a, b int64) bool { return a < b },
		Seed:   6,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(blockSize*3 + 7)
	for i := int64(0); i < n; i++ {
		d.Push(0, 1<<20, i)
	}
	got := 0
	for tries := 0; tries < 1<<13 && got < int(n); tries++ {
		if _, ok := d.Pop(1); ok {
			got++
		}
	}
	if got != int(n) {
		t.Fatalf("spied %d of %d chained tasks", got, n)
	}
}

// TestPublishedBlocksAreCollectable: a long-lived structure must not
// keep every block it ever published. Nothing but the places' iterators
// and the tail hint may hold the global list, so once a round has been
// drained its blocks are garbage and the heap stays flat across rounds.
func TestPublishedBlocksAreCollectable(t *testing.T) {
	d, err := New(core.Options[int64]{
		Places: 2,
		Less:   func(a, b int64) bool { return a < b },
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	const perRound = 50_000
	inuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	var after2 uint64
	for round := 1; round <= 20; round++ {
		for i := 0; i < perRound; i++ {
			d.Push(i&1, 64, int64(i))
		}
		for got, fails := 0, 0; got < perRound; {
			_, ok0 := d.Pop(0)
			_, ok1 := d.Pop(1)
			if ok0 {
				got++
			}
			if ok1 {
				got++
			}
			if !ok0 && !ok1 {
				if fails++; fails > 1<<12 {
					t.Fatalf("round %d: drained %d of %d", round, got, perRound)
				}
			}
		}
		if round == 2 {
			after2 = inuse()
		}
	}
	after20 := inuse()
	runtime.KeepAlive(d)
	if after20 > 2*after2 {
		t.Fatalf("HeapInuse %d KB after round 20, %d KB after round 2: published blocks are being retained",
			after20>>10, after2>>10)
	}
	t.Logf("HeapInuse %d KB after round 2, %d KB after round 20", after2>>10, after20>>10)
}

// TestHybridPushAllocsAmortised pins the slab layout: items live inline
// in their list block and the local queue grows by whole chunks, so a
// push allocates a small fraction of an object, not one per task.
func TestHybridPushAllocsAmortised(t *testing.T) {
	const n = 64 << 10
	for name, prio := range map[string]func(int64) int64{"less": nil, "keyed": func(v int64) int64 { return v }} {
		allocs := testing.AllocsPerRun(3, func() {
			d, err := New(core.Options[int64]{
				Places: 1,
				Less:   func(a, b int64) bool { return a < b },
				Prio:   prio,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < n; i++ {
				d.Push(0, 512, i^0x5555)
			}
			for i := 0; i < n; i++ {
				if _, ok := d.Pop(0); !ok {
					t.Fatalf("pop %d failed", i)
				}
			}
		})
		if perOp := allocs / n; perOp > 0.05 {
			t.Errorf("%s: %.3f allocs per push+pop, want at most 0.05", name, perOp)
		}
	}
}

// TestSlabSizedByPublicationBudget: a list block's slab holds what the
// local list can still take before it must be published, so strict
// (small-k) use pays for a few items per publication, not for blockSize.
func TestSlabSizedByPublicationBudget(t *testing.T) {
	for _, c := range []struct {
		k, pushes int
		slabs     []int // slab sizes along the local list
	}{
		{k: 0, pushes: 1, slabs: []int{1}},
		{k: 3, pushes: 4, slabs: []int{4}},
		{k: blockSize + 9, pushes: blockSize + 10, slabs: []int{blockSize, 10}},
		{k: 1 << 20, pushes: blockSize + 1, slabs: []int{blockSize, blockSize}},
	} {
		d, err := New(core.Options[int64]{Places: 2, Less: func(a, b int64) bool { return a < b }})
		if err != nil {
			t.Fatal(err)
		}
		blk := d.places[0].listHead.Load()
		if blk.items != nil {
			t.Fatalf("k=%d: the empty list already has a slab", c.k)
		}
		for i := 0; i < c.pushes; i++ {
			d.Push(0, c.k, int64(i))
		}
		for i, want := range c.slabs {
			if blk == nil {
				t.Fatalf("k=%d: the list ends after %d blocks, want %d", c.k, i, len(c.slabs))
			}
			if len(blk.items) != want {
				t.Fatalf("k=%d: block %d of the list has a slab of %d items, want %d", c.k, i, len(blk.items), want)
			}
			blk = blk.next.Load()
		}
		if blk != nil {
			t.Fatalf("k=%d: more than %d blocks for %d pushes", c.k, len(c.slabs), c.pushes)
		}
	}
}
