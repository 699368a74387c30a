package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBlockArenaRecycles pins the pool's steady state: a released block
// comes back on the next claim with its grown buffer intact, so a warm
// get/grow/put cycle allocates nothing.
func TestBlockArenaRecycles(t *testing.T) {
	a := newBlockArena[int64]()
	b := a.get()
	buf := b.grow(64)
	if len(buf) != 64 {
		t.Fatalf("grow(64) returned %d elements", len(buf))
	}
	a.put(b)
	if again := a.get(); again != b {
		t.Fatalf("second get returned a different block with the pool non-empty")
	}
	if got := b.grow(32); cap(got) < 64 {
		t.Fatalf("shrunken grow lost the retained capacity: cap %d", cap(got))
	}
	a.put(b)
	allocs := testing.AllocsPerRun(1000, func() {
		blk := a.get()
		s := blk.grow(64)
		s[0] = 1
		a.put(blk)
	})
	if allocs != 0 {
		t.Errorf("warm get/grow/put allocs = %v, want 0", allocs)
	}
}

// TestBlockArenaConcurrent hammers claim/release from many goroutines
// under -race and checks what the arena promises: no two concurrent
// claimants ever hold the same block, a slot is published for exactly
// the blocks dry gets minted, and every released block stays claimable.
// It does not bound the population by the goroutine count: a get that
// scans past a slot just before its block is put back mints a fresh
// block, so the slots can outnumber the peak claimants.
func TestBlockArenaConcurrent(t *testing.T) {
	a := newBlockArena[int64]()
	const goroutines, rounds = 32, 1250
	var inUse, minted sync.Map // *block[int64] → struct{}
	var double atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b := a.get()
				minted.Store(b, struct{}{})
				if _, loaded := inUse.LoadOrStore(b, struct{}{}); loaded {
					double.Add(1)
					return
				}
				buf := b.grow(16)
				for j := range buf {
					buf[j] = int64(g)
				}
				for _, v := range buf {
					if v != int64(g) {
						double.Add(1)
						return
					}
				}
				inUse.Delete(b)
				if (i+g)%7 == 0 {
					// Hold some claims across a reschedule, so gets run
					// dry and puts publish slots throughout the run, not
					// only while the pool warms up.
					runtime.Gosched()
				}
				a.put(b)
			}
		}(g)
	}
	wg.Wait()
	if double.Load() != 0 {
		t.Fatal("a block was claimed by two goroutines at once")
	}
	blocks := int64(0)
	minted.Range(func(_, _ any) bool { blocks++; return true })
	if n := a.n.Load(); n != blocks {
		t.Fatalf("%d slots published for %d minted blocks", n, blocks)
	}
	// Quiescent now: every minted block is back in a slot, so draining
	// the pool hands each of them out once before it runs dry.
	for i := int64(0); i < blocks; i++ {
		b := a.get()
		if _, known := minted.LoadAndDelete(b); !known {
			t.Fatalf("claim %d of %d returned a fresh or repeated block: a released block was lost", i+1, blocks)
		}
	}
}

// TestEnvelopePoolNoAliasing drives the serve-mode submit path hard
// enough that envelope staging blocks are recycled across concurrent
// SubmitK calls, and checks exactly-once delivery of every distinct
// value: a pooled buffer aliased by a live task would surface as a
// duplicated or corrupted value.
func TestEnvelopePoolNoAliasing(t *testing.T) {
	const producers, batches, batch = 4, 500, 16
	const total = producers * batches * batch
	seen := make([]atomic.Int32, total)
	var dupes atomic.Int32
	s, err := New(Config[int64]{
		Places:    4,
		Strategy:  Relaxed,
		K:         64,
		Less:      intLess,
		Injectors: producers,
		Priority:  func(v int64) int64 { return v % 1024 },
		MaxPrio:   1023,
		Execute: func(ctx *Ctx[int64], v int64) {
			if v < 0 || v >= total {
				dupes.Add(1)
				return
			}
			if seen[v].Add(1) != 1 {
				dupes.Add(1)
			}
		},
		Seed: 7,
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
			vs := make([]int64, batch)
			for i := 0; i < batches; i++ {
				for j := range vs {
					vs[j] = int64((p*batches+i)*batch + j)
				}
				if err := s.SubmitAllK(8, vs); err != nil {
					t.Errorf("SubmitK: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if dupes.Load() != 0 {
		t.Fatalf("%d corrupted or duplicated deliveries", dupes.Load())
	}
	for v := range seen {
		if seen[v].Load() != 1 {
			t.Fatalf("value %d executed %d times", v, seen[v].Load())
		}
	}
}
