// Package dstest is a conformance test suite for implementations of
// core.DS. Each data structure package runs the full suite against its
// constructor, so the shared contract of Section 2.1 — exactly-once
// delivery, no lost tasks, spurious-failure-only emptiness, stale-task
// elimination — is checked uniformly.
package dstest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// Factory builds a DS under test for the given options.
type Factory func(opts core.Options[int64]) (core.DS[int64], error)

// Flags tailors the suite to a structure's documented guarantees.
type Flags struct {
	// NoLocalOrdering skips the single-place strict-priority-order check.
	// It applies to structures whose relaxation is structural rather than
	// temporal (internal/relaxed): even a lone place distributes tasks
	// over several lanes, so pops are only ρ-approximate.
	NoLocalOrdering bool
	// NoCrossPlaceDrain skips the test requiring an idle place to obtain
	// every task pushed elsewhere. It applies to ablation variants that
	// intentionally cripple the distribution mechanism (hybrid/no-spy).
	NoCrossPlaceDrain bool
}

// Run executes the complete conformance suite.
func Run(t *testing.T, name string, mk Factory) {
	RunFlags(t, name, mk, Flags{})
}

// RunFlags executes the conformance suite with guarantee-specific opt-outs.
func RunFlags(t *testing.T, name string, mk Factory, f Flags) {
	t.Run(name+"/SingleTask", func(t *testing.T) { singleTask(t, mk) })
	t.Run(name+"/SequentialDrain", func(t *testing.T) { sequentialDrain(t, mk) })
	if !f.NoLocalOrdering {
		t.Run(name+"/LocalOrdering", func(t *testing.T) { localOrdering(t, mk) })
	}
	t.Run(name+"/KBoundaries", func(t *testing.T) { kBoundaries(t, mk) })
	t.Run(name+"/StaleElimination", func(t *testing.T) { staleElimination(t, mk) })
	if !f.NoCrossPlaceDrain {
		t.Run(name+"/CrossPlaceVisibility", func(t *testing.T) { crossPlaceVisibility(t, mk) })
	}
	t.Run(name+"/ConcurrentExactlyOnce", func(t *testing.T) { concurrentExactlyOnce(t, mk) })
	t.Run(name+"/ConcurrentProducerConsumer", func(t *testing.T) { producerConsumer(t, mk) })
	if !f.NoCrossPlaceDrain {
		t.Run(name+"/ExternalInjection", func(t *testing.T) { externalInjection(t, mk) })
	}
	t.Run(name+"/BatchRoundTrip", func(t *testing.T) { batchRoundTrip(t, mk) })
	t.Run(name+"/BatchEmptyPop", func(t *testing.T) { batchEmptyPop(t, mk) })
	t.Run(name+"/BatchPopInto", func(t *testing.T) { batchPopInto(t, mk) })
	t.Run(name+"/PopIntoBufferReuse", func(t *testing.T) { popIntoBufferReuse(t, mk) })
	t.Run(name+"/ConcurrentBatchMix", func(t *testing.T) { concurrentBatchMix(t, mk) })
	t.Run(name+"/ConcurrentStaleFlips", func(t *testing.T) { concurrentStaleFlips(t, mk) })
	t.Run(name+"/StatsAccounting", func(t *testing.T) { statsAccounting(t, mk) })
	t.Run(name+"/CounterConsistency", func(t *testing.T) { counterConsistency(t, mk) })
	t.Run(name+"/ShedNeverPopped", func(t *testing.T) { shedNeverPopped(t, mk) })
	t.Run(name+"/TenantQuotaNeverStarves", func(t *testing.T) { tenantQuotaNeverStarves(t, mk) })
	t.Run(name+"/SmallLiveSetChurn", func(t *testing.T) { smallLiveSetChurn(t, mk) })
	t.Run(name+"/BurstDrainCycles", func(t *testing.T) { burstDrainCycles(t, mk) })
	t.Run(name+"/ManyPlacesSmoke", func(t *testing.T) { manyPlacesSmoke(t, mk) })
	if !f.NoLocalOrdering {
		t.Run(name+"/MonotonePriorities", func(t *testing.T) { monotonePriorities(t, mk) })
	}
	t.Run(name+"/Conformance", func(t *testing.T) { Conformance(t, mk) })
}

func less(a, b int64) bool { return a < b }

func mustNew(t *testing.T, mk Factory, opts core.Options[int64]) core.DS[int64] {
	t.Helper()
	if opts.Less == nil {
		opts.Less = less
	}
	d, err := mk(opts)
	if err != nil {
		t.Fatalf("constructor: %v", err)
	}
	return d
}

// popAll drains the structure from one place, retrying spurious failures
// up to `patience` consecutive times (single-threaded, so a handful of
// retries must find everything the invariants promise).
func popAll(d core.DS[int64], place, patience int) []int64 {
	var out []int64
	fails := 0
	for fails < patience {
		if v, ok := d.Pop(place); ok {
			out = append(out, v)
			fails = 0
		} else {
			fails++
		}
	}
	return out
}

func singleTask(t *testing.T, mk Factory) {
	d := mustNew(t, mk, core.Options[int64]{Places: 2, Seed: 1})
	d.Push(0, 4, 99)
	v, ok := d.Pop(0)
	if !ok || v != 99 {
		t.Fatalf("Pop = %v,%v want 99,true", v, ok)
	}
	if got := popAll(d, 0, 2048); len(got) != 0 {
		t.Fatalf("drained extra values %v from singleton", got)
	}
}

func sequentialDrain(t *testing.T, mk Factory) {
	for _, k := range []int{0, 1, 7, 512} {
		d := mustNew(t, mk, core.Options[int64]{Places: 1, Seed: 2})
		const n = 2000
		r := xrand.New(3)
		want := map[int64]int{}
		for i := 0; i < n; i++ {
			v := int64(r.Intn(500))
			want[v]++
			d.Push(0, k, v)
		}
		got := popAll(d, 0, 4096)
		if len(got) != n {
			t.Fatalf("k=%d drained %d tasks, want %d", k, len(got), n)
		}
		for _, v := range got {
			want[v]--
		}
		for v, c := range want {
			if c != 0 {
				t.Fatalf("k=%d multiset mismatch at %d: %+d", k, v, c)
			}
		}
	}
}

// localOrdering: with a single place and everything pushed before any pop,
// every structure must return tasks in priority order — a single place
// sees all its own tasks in its local priority queue.
func localOrdering(t *testing.T, mk Factory) {
	d := mustNew(t, mk, core.Options[int64]{Places: 1, Seed: 4})
	r := xrand.New(5)
	const n = 1000
	for i := 0; i < n; i++ {
		d.Push(0, 64, int64(r.Intn(1<<20)))
	}
	got := popAll(d, 0, 4096)
	if len(got) != n {
		t.Fatalf("drained %d, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("priority order violated at %d: %d after %d", i, got[i], got[i-1])
		}
	}
}

func kBoundaries(t *testing.T, mk Factory) {
	// k = 0 and enormous k must both work and deliver everything.
	for _, k := range []int{0, 1, 1 << 20} {
		d := mustNew(t, mk, core.Options[int64]{Places: 2, Seed: 6})
		for i := int64(0); i < 300; i++ {
			d.Push(int(i)%2, k, i)
		}
		got := append(popAll(d, 0, 2048), popAll(d, 1, 2048)...)
		if len(got) != 300 {
			t.Fatalf("k=%d drained %d, want 300", k, len(got))
		}
	}
}

func staleElimination(t *testing.T, mk Factory) {
	stale := func(v int64) bool { return v%2 == 1 }
	var eliminated atomic.Int64
	d := mustNew(t, mk, core.Options[int64]{
		Places:      1,
		Seed:        7,
		Stale:       stale,
		OnEliminate: func(int, int64) { eliminated.Add(1) },
	})
	const n = 500
	for i := int64(0); i < n; i++ {
		d.Push(0, 32, i)
	}
	got := popAll(d, 0, 4096)
	if int64(len(got))+eliminated.Load() != n {
		t.Fatalf("returned %d + eliminated %d != pushed %d", len(got), eliminated.Load(), n)
	}
	for _, v := range got {
		if stale(v) {
			t.Fatalf("stale task %d escaped elimination", v)
		}
	}
	if eliminated.Load() != n/2 {
		t.Fatalf("eliminated %d, want %d", eliminated.Load(), n/2)
	}
	if s := d.Stats(); s.Eliminated != n/2 {
		t.Fatalf("Stats.Eliminated = %d, want %d", s.Eliminated, n/2)
	}
}

// crossPlaceVisibility: tasks pushed at one place must be obtainable from
// another place (via scan, spy or steal) without the pusher popping.
func crossPlaceVisibility(t *testing.T, mk Factory) {
	d := mustNew(t, mk, core.Options[int64]{Places: 4, Seed: 8})
	const n = 400
	for i := int64(0); i < n; i++ {
		d.Push(0, 8, i) // small k forces publication in the hybrid DS
	}
	got := popAll(d, 2, 1<<15)
	if len(got) != n {
		t.Fatalf("place 2 obtained %d of %d tasks pushed at place 0", len(got), n)
	}
}

func concurrentExactlyOnce(t *testing.T, mk Factory) {
	places := runtime.GOMAXPROCS(0)
	if places > 8 {
		places = 8
	}
	if places < 2 {
		places = 2
	}
	perPlace := 20000
	if testing.Short() {
		perPlace = 4000
	}
	d := mustNew(t, mk, core.Options[int64]{Places: places, Seed: 9})
	var produced atomic.Int64
	var wg sync.WaitGroup
	results := make([][]int64, places)
	for pl := 0; pl < places; pl++ {
		wg.Add(1)
		go func(pl int) {
			defer wg.Done()
			r := xrand.New(uint64(pl) * 77)
			var mine []int64
			pushed := 0
			fails := 0
			for {
				if pushed < perPlace && r.Intn(2) == 0 {
					v := int64(pl*perPlace + pushed)
					d.Push(pl, 1+r.Intn(512), v)
					produced.Add(1)
					pushed++
					continue
				}
				if v, ok := d.Pop(pl); ok {
					mine = append(mine, v)
					fails = 0
					continue
				}
				if pushed < perPlace {
					continue // still have own work to create
				}
				fails++
				if fails > 1<<14 {
					break
				}
			}
			results[pl] = mine
		}(pl)
	}
	wg.Wait()
	// Quiescent final drain: whatever remains must surface now.
	leftovers := popAll(d, 0, 1<<15)
	seen := map[int64]int{}
	total := 0
	for _, res := range results {
		for _, v := range res {
			seen[v]++
			total++
		}
	}
	for _, v := range leftovers {
		seen[v]++
		total++
	}
	if int64(total) != produced.Load() {
		t.Fatalf("popped %d tasks, produced %d", total, produced.Load())
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("task %d delivered %d times", v, c)
		}
	}
}

func producerConsumer(t *testing.T, mk Factory) {
	// Asymmetric roles: half the places only push, half only pop.
	places := 6
	perProducer := 10000
	if testing.Short() {
		perProducer = 2000
	}
	d := mustNew(t, mk, core.Options[int64]{Places: places, Seed: 10})
	var wg sync.WaitGroup
	var pushed atomic.Int64
	doneProducing := make(chan struct{})
	for pl := 0; pl < places/2; pl++ {
		wg.Add(1)
		go func(pl int) {
			defer wg.Done()
			r := xrand.New(uint64(pl) + 1)
			for i := 0; i < perProducer; i++ {
				d.Push(pl, 1+r.Intn(128), int64(pl*perProducer+i))
				pushed.Add(1)
			}
		}(pl)
	}
	go func() { wg.Wait(); close(doneProducing) }()

	var popped atomic.Int64
	var cwg sync.WaitGroup
	counts := make([]map[int64]int, places)
	for pl := places / 2; pl < places; pl++ {
		cwg.Add(1)
		go func(pl int) {
			defer cwg.Done()
			local := map[int64]int{}
			fails := 0
			for {
				if v, ok := d.Pop(pl); ok {
					local[v]++
					popped.Add(1)
					fails = 0
					continue
				}
				select {
				case <-doneProducing:
					fails++
					if fails > 1<<14 {
						counts[pl] = local
						return
					}
				default:
				}
			}
		}(pl)
	}
	cwg.Wait()
	merged := map[int64]int{}
	for _, m := range counts {
		for v, c := range m {
			merged[v] += c
		}
	}
	if int64(len(merged)) != pushed.Load() || popped.Load() != pushed.Load() {
		t.Fatalf("pushed %d, popped %d distinct %d", pushed.Load(), popped.Load(), len(merged))
	}
	for v, c := range merged {
		if c != 1 {
			t.Fatalf("task %d delivered %d times", v, c)
		}
	}
}

// externalInjection models the open-system serve mode: dedicated
// injector places push tasks (and never pop) while worker places pop
// (and never push), concurrently; afterwards a drain to empty must
// account for every task exactly once. This is the pattern
// sched.Scheduler's Submit path relies on, so it is pinned here at the
// data structure contract level. Skipped under NoCrossPlaceDrain:
// a structure that cannot hand tasks to other places cannot serve
// external traffic at all.
func externalInjection(t *testing.T, mk Factory) {
	const workers, injectors = 4, 2
	perInjector := 15000
	if testing.Short() {
		perInjector = 3000
	}
	total := injectors * perInjector
	d := mustNew(t, mk, core.Options[int64]{Places: workers + injectors, Seed: 26})

	var producing atomic.Int32
	producing.Store(injectors)
	var wg sync.WaitGroup
	for inj := 0; inj < injectors; inj++ {
		wg.Add(1)
		go func(inj int) {
			defer wg.Done()
			defer producing.Add(-1)
			r := xrand.New(uint64(inj)*101 + 1)
			for i := 0; i < perInjector; i++ {
				d.Push(workers+inj, 1+r.Intn(512), int64(inj*perInjector+i))
			}
		}(inj)
	}

	counts := make([][]int64, workers)
	for pl := 0; pl < workers; pl++ {
		wg.Add(1)
		go func(pl int) {
			defer wg.Done()
			var mine []int64
			fails := 0
			for {
				if v, ok := d.Pop(pl); ok {
					mine = append(mine, v)
					fails = 0
					continue
				}
				if producing.Load() > 0 {
					// Spurious failure while traffic still flows: yield so
					// the injector goroutines get cycles on small machines.
					runtime.Gosched()
					continue
				}
				fails++
				if fails > 1<<14 {
					break
				}
			}
			counts[pl] = mine
		}(pl)
	}
	wg.Wait()

	// Drain-to-empty at quiescence: whatever the workers left behind must
	// surface now, from a worker place.
	leftovers := popAll(d, 0, 1<<15)
	seen := make(map[int64]int, total)
	delivered := 0
	for _, mine := range counts {
		for _, v := range mine {
			seen[v]++
			delivered++
		}
	}
	for _, v := range leftovers {
		seen[v]++
		delivered++
	}
	if delivered != total {
		t.Fatalf("delivered %d of %d injected tasks (%d drained after quiescence)",
			delivered, total, len(leftovers))
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("task %d delivered %d times", v, c)
		}
	}
}

// batchRoundTrip: mixed PushK/Push traffic drained with mixed
// PopKInto/Pop must deliver the exact multiset exactly once.
func batchRoundTrip(t *testing.T, mk Factory) {
	d := mustNew(t, mk, core.Options[int64]{Places: 2, Seed: 27})
	r := xrand.New(28)
	want := map[int64]int{}
	next := int64(0)
	push := func(pl int, vs []int64) {
		for _, v := range vs {
			want[v]++
		}
		d.PushK(pl, 1+r.Intn(512), vs)
	}
	push(0, nil) // empty batch is a no-op
	for i := 0; i < 200; i++ {
		n := r.Intn(9) // 0..8 per batch
		vs := make([]int64, n)
		for j := range vs {
			vs[j] = int64(r.Intn(500))
			next++
		}
		push(i%2, vs)
		if r.Intn(3) == 0 {
			v := int64(r.Intn(500))
			want[v]++
			d.Push(i%2, 64, v)
			next++
		}
	}
	var got []int64
	got = append(got, popAllInto(t, d, 0, make([]int64, 1+r.Intn(16)), 4096)...)
	got = append(got, popAll(d, 1, 4096)...)
	if int64(len(got)) != next {
		t.Fatalf("drained %d of %d batched tasks", len(got), next)
	}
	for _, v := range got {
		want[v]--
	}
	for v, c := range want {
		if c != 0 {
			t.Fatalf("multiset mismatch at %d: %+d", v, c)
		}
	}
}

// batchEmptyPop pins the PopKInto emptiness contract: a zero-length
// buffer always obtains nothing, an empty structure obtains nothing,
// and after a drain the structure keeps obtaining nothing — without
// panics or phantom tasks.
func batchEmptyPop(t *testing.T, mk Factory) {
	d := mustNew(t, mk, core.Options[int64]{Places: 2, Seed: 29})
	buf := make([]int64, 8)
	for _, n := range []int{0, 1, 8} {
		if got := d.PopKInto(0, buf[:n]); got != 0 {
			t.Fatalf("PopKInto(empty, %d-slot buffer) = %d", n, got)
		}
	}
	d.PushK(0, 8, []int64{3, 1, 2})
	if got := d.PopKInto(0, buf[:0]); got != 0 {
		t.Fatalf("PopKInto(zero-length buffer) on non-empty = %d, want 0", got)
	}
	if got := popAllInto(t, d, 0, buf, 4096); len(got) != 3 {
		t.Fatalf("drained %d of 3", len(got))
	}
	for i := 0; i < 64; i++ {
		if got := d.PopKInto(i%2, buf[:4]); got != 0 {
			t.Fatalf("PopKInto after drain = %d", got)
		}
	}
}

// popAllInto drains the structure from one place through PopKInto,
// reusing a single caller-owned buffer for every call — the scheduler's
// worker-loop pattern — retrying empty results up to `patience`
// consecutive times.
func popAllInto(t *testing.T, d core.DS[int64], place int, buf []int64, patience int) []int64 {
	t.Helper()
	var out []int64
	fails := 0
	for fails < patience {
		got := d.PopKInto(place, buf)
		if got < 0 || got > len(buf) {
			t.Fatalf("PopKInto returned %d with a %d-element buffer", got, len(buf))
		}
		if got > 0 {
			out = append(out, buf[:got]...)
			fails = 0
		} else {
			fails++
		}
	}
	return out
}

// batchPopInto pins the allocation-free batch-pop contract every
// structure must provide (core.DS.PopKInto): a nil or
// empty buffer is a no-op, the fill count never exceeds the buffer, and
// a mixed push workload drained entirely through one reused buffer is
// delivered exactly once.
func batchPopInto(t *testing.T, mk Factory) {
	d := mustNew(t, mk, core.Options[int64]{Places: 2, Seed: 36})
	if got := d.PopKInto(0, nil); got != 0 {
		t.Fatalf("PopKInto(nil buffer) = %d, want 0", got)
	}
	r := xrand.New(37)
	want := map[int64]int{}
	next := int64(0)
	for i := 0; i < 300; i++ {
		if r.Intn(3) == 0 {
			n := 1 + r.Intn(8)
			vs := make([]int64, n)
			for j := range vs {
				vs[j] = next
				want[next]++
				next++
			}
			d.PushK(i%2, 1+r.Intn(512), vs)
		} else {
			d.Push(i%2, 1+r.Intn(512), next)
			want[next]++
			next++
		}
	}
	if got := d.PopKInto(0, nil); got != 0 {
		t.Fatalf("PopKInto(nil buffer) on non-empty = %d, want 0", got)
	}
	buf := make([]int64, 1+r.Intn(16))
	got := append(popAllInto(t, d, 0, buf, 4096), popAllInto(t, d, 1, buf, 4096)...)
	if int64(len(got)) != next {
		t.Fatalf("drained %d of %d via PopKInto", len(got), next)
	}
	for _, v := range got {
		want[v]--
	}
	for v, c := range want {
		if c != 0 {
			t.Fatalf("multiset mismatch at %d: %+d", v, c)
		}
	}
}

// popIntoBufferReuse pins the stale-alias hazard of buffer reuse: after
// a full drain leaves old task values sitting in the shared buffer, a
// later wave of pops through the same buffer must deliver only the
// newly pushed tasks — a structure (or adapter) that reports a fill
// count beyond what it actually wrote would resurrect dead tasks from
// the previous wave's residue.
func popIntoBufferReuse(t *testing.T, mk Factory) {
	d := mustNew(t, mk, core.Options[int64]{Places: 2, Seed: 38})
	buf := make([]int64, 8)
	const waves, perWave = 5, 200
	for w := 0; w < waves; w++ {
		lo, hi := int64(w*perWave), int64((w+1)*perWave)
		for v := lo; v < hi; v++ {
			d.Push(int(v)%2, 1+int(v%512), v)
		}
		got := append(popAllInto(t, d, 0, buf, 4096), popAllInto(t, d, 1, buf, 4096)...)
		if len(got) != perWave {
			t.Fatalf("wave %d: drained %d of %d", w, len(got), perWave)
		}
		seen := map[int64]bool{}
		for _, v := range got {
			if v < lo || v >= hi {
				t.Fatalf("wave %d: stale value %d resurfaced from the reused buffer", w, v)
			}
			if seen[v] {
				t.Fatalf("wave %d: value %d delivered twice", w, v)
			}
			seen[v] = true
		}
	}
}

// concurrentBatchMix: places concurrently interleave batch and single
// pushes with batch and single pops; every task must be delivered
// exactly once. This is the exactly-once contract of §2.1 extended to
// the batch operations, under -race.
func concurrentBatchMix(t *testing.T, mk Factory) {
	places := runtime.GOMAXPROCS(0)
	if places > 8 {
		places = 8
	}
	if places < 2 {
		places = 2
	}
	perPlace := 12000
	if testing.Short() {
		perPlace = 3000
	}
	d := mustNew(t, mk, core.Options[int64]{Places: places, Seed: 30})
	var produced atomic.Int64
	var wg sync.WaitGroup
	results := make([][]int64, places)
	for pl := 0; pl < places; pl++ {
		wg.Add(1)
		go func(pl int) {
			defer wg.Done()
			r := xrand.New(uint64(pl)*131 + 7)
			var mine []int64
			var buf [8]int64
			pushed := 0
			fails := 0
			for {
				if pushed < perPlace && r.Intn(2) == 0 {
					if r.Intn(2) == 0 {
						// Batch push of 1..8 tasks.
						n := 1 + r.Intn(8)
						if n > perPlace-pushed {
							n = perPlace - pushed
						}
						vs := make([]int64, n)
						for j := range vs {
							vs[j] = int64(pl*perPlace + pushed)
							pushed++
						}
						d.PushK(pl, 1+r.Intn(512), vs)
						produced.Add(int64(n))
					} else {
						d.Push(pl, 1+r.Intn(512), int64(pl*perPlace+pushed))
						produced.Add(1)
						pushed++
					}
					continue
				}
				if r.Intn(2) == 0 {
					if got := d.PopKInto(pl, buf[:1+r.Intn(8)]); got > 0 {
						mine = append(mine, buf[:got]...)
						fails = 0
						continue
					}
				} else if v, ok := d.Pop(pl); ok {
					mine = append(mine, v)
					fails = 0
					continue
				}
				if pushed < perPlace {
					continue // still have own work to create
				}
				fails++
				if fails > 1<<14 {
					break
				}
			}
			results[pl] = mine
		}(pl)
	}
	wg.Wait()
	// Quiescent final drain: whatever remains must surface now.
	leftovers := popAllInto(t, d, 0, make([]int64, 8), 1<<15)
	seen := map[int64]int{}
	total := 0
	for _, res := range results {
		for _, v := range res {
			seen[v]++
			total++
		}
	}
	for _, v := range leftovers {
		seen[v]++
		total++
	}
	if int64(total) != produced.Load() {
		t.Fatalf("popped %d tasks, produced %d", total, produced.Load())
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("task %d delivered %d times", v, c)
		}
	}
}

// concurrentStaleFlips: tasks become stale while in flight; the sum of
// executed + eliminated must equal pushed, with no double delivery.
func concurrentStaleFlips(t *testing.T, mk Factory) {
	const places = 4
	perPlace := 5000
	if testing.Short() {
		perPlace = 1000
	}
	total := places * perPlace
	staleMask := make([]atomic.Int32, total)
	var eliminated atomic.Int64
	d := mustNew(t, mk, core.Options[int64]{
		Places:      places,
		Seed:        11,
		Stale:       func(v int64) bool { return staleMask[v].Load() != 0 },
		OnEliminate: func(int, int64) { eliminated.Add(1) },
	})
	var wg sync.WaitGroup
	var delivered atomic.Int64
	var dupes atomic.Int64
	deliveredOnce := make([]atomic.Int32, total)
	for pl := 0; pl < places; pl++ {
		wg.Add(1)
		go func(pl int) {
			defer wg.Done()
			r := xrand.New(uint64(pl) * 13)
			pushed := 0
			fails := 0
			for pushed < perPlace || fails < 1<<14 {
				if pushed < perPlace {
					v := int64(pl*perPlace + pushed)
					d.Push(pl, 1+r.Intn(64), v)
					pushed++
					// Concurrently mark a random earlier task stale.
					staleMask[r.Intn(pl*perPlace+pushed)].Store(1)
				}
				if v, ok := d.Pop(pl); ok {
					if deliveredOnce[v].Add(1) != 1 {
						dupes.Add(1)
					}
					delivered.Add(1)
					fails = 0
				} else {
					fails++
				}
			}
		}(pl)
	}
	wg.Wait()
	for _, v := range popAll(d, 0, 1<<15) {
		if deliveredOnce[v].Add(1) != 1 {
			dupes.Add(1)
		}
		delivered.Add(1)
	}
	if dupes.Load() != 0 {
		t.Fatalf("%d duplicate deliveries", dupes.Load())
	}
	if got := delivered.Load() + eliminated.Load(); got != int64(total) {
		t.Fatalf("delivered %d + eliminated %d = %d, want %d",
			delivered.Load(), eliminated.Load(), got, total)
	}
}

// smallLiveSetChurn keeps 1-2 tasks live across a long run of pops: the
// regime the end of every SSSP run hits, where termination bugs (stranded
// items after the tail, unpublished local lists) show up.
func smallLiveSetChurn(t *testing.T, mk Factory) {
	d := mustNew(t, mk, core.Options[int64]{Places: 3, Seed: 20})
	r := xrand.New(21)
	live := 0
	delivered := 0
	pushed := int64(0)
	for step := 0; step < 30000; step++ {
		if live == 0 || (live < 2 && r.Intn(4) == 0) {
			d.Push(r.Intn(3), 1+r.Intn(512), pushed)
			pushed++
			live++
		}
		if v, ok := d.Pop(r.Intn(3)); ok {
			if v < 0 || v >= pushed {
				t.Fatalf("popped unknown value %d", v)
			}
			delivered++
			live--
		}
	}
	delivered += len(popAll(d, 0, 1<<15))
	if int64(delivered) != pushed {
		t.Fatalf("delivered %d of %d under churn", delivered, pushed)
	}
}

// burstDrainCycles alternates large bursts of pushes with full drains,
// cycling the internal storage (tail windows, local lists, lanes) many
// times over.
func burstDrainCycles(t *testing.T, mk Factory) {
	d := mustNew(t, mk, core.Options[int64]{Places: 2, Seed: 22})
	r := xrand.New(23)
	var next int64
	for cycle := 0; cycle < 40; cycle++ {
		burst := 1 + r.Intn(600)
		for i := 0; i < burst; i++ {
			d.Push(i%2, 1+r.Intn(64), next)
			next++
		}
		got := append(popAll(d, 0, 1<<14), popAll(d, 1, 1<<14)...)
		if len(got) != burst {
			t.Fatalf("cycle %d: drained %d of %d", cycle, len(got), burst)
		}
	}
	s := d.Stats()
	if s.Pops != next {
		t.Fatalf("Stats.Pops = %d, want %d", s.Pops, next)
	}
}

// manyPlacesSmoke runs a brief storm with an unusually high place count
// relative to GOMAXPROCS (heavy oversubscription, like the paper's P=80).
func manyPlacesSmoke(t *testing.T, mk Factory) {
	const places = 32
	d := mustNew(t, mk, core.Options[int64]{Places: places, Seed: 24})
	var wg sync.WaitGroup
	var delivered atomic.Int64
	const perPlace = 300
	for pl := 0; pl < places; pl++ {
		wg.Add(1)
		go func(pl int) {
			defer wg.Done()
			r := xrand.New(uint64(pl) + 31)
			for i := 0; i < perPlace; i++ {
				d.Push(pl, 1+r.Intn(512), int64(pl*perPlace+i))
			}
			fails := 0
			for fails < 1<<13 {
				if _, ok := d.Pop(pl); ok {
					delivered.Add(1)
					fails = 0
				} else {
					fails++
				}
			}
		}(pl)
	}
	wg.Wait()
	delivered.Add(int64(len(popAll(d, 0, 1<<15))))
	if got := delivered.Load(); got != places*perPlace {
		t.Fatalf("delivered %d of %d", got, places*perPlace)
	}
}

// monotonePriorities pushes strictly increasing priorities (the common
// monotone pattern of label-setting algorithms) and checks single-place
// drains stay ordered and complete.
func monotonePriorities(t *testing.T, mk Factory) {
	d := mustNew(t, mk, core.Options[int64]{Places: 1, Seed: 25})
	const n = 3000
	for i := int64(0); i < n; i++ {
		d.Push(0, 32, i)
	}
	got := popAll(d, 0, 1<<13)
	if len(got) != n {
		t.Fatalf("drained %d of %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("order violated at %d: %d after %d", i, got[i], got[i-1])
		}
	}
}

// monotoneCounters is the set of cumulative counters every structure
// must only ever grow; counterConsistency's monitor polls them while
// operations are in flight.
var monotoneCounters = []struct {
	name string
	get  func(core.Stats) int64
}{
	{"Pushes", func(s core.Stats) int64 { return s.Pushes }},
	{"Pops", func(s core.Stats) int64 { return s.Pops }},
	{"PopFailures", func(s core.Stats) int64 { return s.PopFailures }},
	{"BatchPushes", func(s core.Stats) int64 { return s.BatchPushes }},
	{"BatchPops", func(s core.Stats) int64 { return s.BatchPops }},
	{"PopRetries", func(s core.Stats) int64 { return s.PopRetries }},
	{"Resticks", func(s core.Stats) int64 { return s.Resticks }},
	{"Eliminated", func(s core.Stats) int64 { return s.Eliminated }},
	{"Steals", func(s core.Stats) int64 { return s.Steals }},
	{"Shed", func(s core.Stats) int64 { return s.Shed }},
	{"Deferred", func(s core.Stats) int64 { return s.Deferred }},
	{"Readmitted", func(s core.Stats) int64 { return s.Readmitted }},
	{"TenantShed", func(s core.Stats) int64 { return s.TenantShed }},
	{"TenantDeferred", func(s core.Stats) int64 { return s.TenantDeferred }},
}

// counterConsistency: under a scripted concurrent mix of single and
// batch push/pop across places, Stats() must stay internally consistent:
// snapshots taken while operations are in flight are race-clean (this
// runs under CI's -race lane) and per-counter monotone — PopRetries and
// friends only ever grow — and at quiescence the item-flow equation
// holds exactly: every pushed item was returned by a pop (Pushes ==
// Pops, Eliminated == 0 without a Stale predicate, and the scheduler
// layer's admission counters Shed/Deferred/Readmitted identically
// zero — shed tasks never enter a DS), with the batch counters bounded
// by the batch calls that could have produced them.
func counterConsistency(t *testing.T, mk Factory) {
	places := 4
	perPlace := 8000
	if testing.Short() {
		perPlace = 2000
	}
	d := mustNew(t, mk, core.Options[int64]{Places: places, Seed: 31})

	// Monitor: poll Stats() concurrently with the traffic, checking
	// race-cleanliness and monotonicity of every cumulative counter.
	stopMon := make(chan struct{})
	monDone := make(chan struct{})
	go func() {
		defer close(monDone)
		var prev core.Stats
		for {
			s := d.Stats()
			for _, c := range monotoneCounters {
				if c.get(s) < c.get(prev) {
					t.Errorf("counter %s shrank: %d -> %d", c.name, c.get(prev), c.get(s))
					return
				}
			}
			prev = s
			select {
			case <-stopMon:
				return
			default:
				// Yield so the polling loop cannot starve the places'
				// goroutines on small machines.
				runtime.Gosched()
			}
		}
	}()

	var pushed, popped, pushKCalls, popKCalls atomic.Int64
	var wg sync.WaitGroup
	for pl := 0; pl < places; pl++ {
		wg.Add(1)
		go func(pl int) {
			defer wg.Done()
			r := xrand.New(uint64(pl)*977 + 5)
			var buf [8]int64
			sent := 0
			fails := 0
			for sent < perPlace || fails < 1<<14 {
				if sent < perPlace && r.Intn(2) == 0 {
					if r.Intn(2) == 0 {
						n := 1 + r.Intn(8)
						if n > perPlace-sent {
							n = perPlace - sent
						}
						vs := make([]int64, n)
						for j := range vs {
							vs[j] = int64(pl*perPlace + sent)
							sent++
						}
						d.PushK(pl, 1+r.Intn(512), vs)
						pushKCalls.Add(1)
						pushed.Add(int64(n))
					} else {
						d.Push(pl, 1+r.Intn(512), int64(pl*perPlace+sent))
						sent++
						pushed.Add(1)
					}
					continue
				}
				if r.Intn(2) == 0 {
					popKCalls.Add(1)
					if got := d.PopKInto(pl, buf[:1+r.Intn(8)]); got > 0 {
						popped.Add(int64(got))
						fails = 0
						continue
					}
				} else if _, ok := d.Pop(pl); ok {
					popped.Add(1)
					fails = 0
					continue
				}
				if sent < perPlace {
					continue
				}
				fails++
			}
		}(pl)
	}
	wg.Wait()

	// Quiescent drain with single pops so the batch-call bookkeeping
	// above stays exact.
	leftovers := popAll(d, 0, 1<<15)
	popped.Add(int64(len(leftovers)))
	close(stopMon)
	<-monDone

	s := d.Stats()
	if s.Pushes != pushed.Load() {
		t.Fatalf("Stats.Pushes = %d, test pushed %d items", s.Pushes, pushed.Load())
	}
	if s.Pops != popped.Load() {
		t.Fatalf("Stats.Pops = %d, test popped %d items", s.Pops, popped.Load())
	}
	if s.Eliminated != 0 {
		t.Fatalf("Stats.Eliminated = %d without a Stale predicate", s.Eliminated)
	}
	if s.Shed != 0 || s.Deferred != 0 || s.Readmitted != 0 {
		// Admission control lives in the scheduler layer: a shed task is
		// rejected before it reaches any DS and a deferred one is parked
		// outside it, so a raw structure reporting non-zero here would
		// silently break the item-flow equation below.
		t.Fatalf("raw DS reported admission counters shed=%d deferred=%d readmitted=%d, want all zero",
			s.Shed, s.Deferred, s.Readmitted)
	}
	if s.TenantShed != 0 || s.TenantDeferred != 0 {
		// Same boundary for the tenant-fairness split: quotas and floors
		// are enforced above the DS, never inside it.
		t.Fatalf("raw DS reported tenant admission counters shed=%d deferred=%d, want all zero",
			s.TenantShed, s.TenantDeferred)
	}
	if s.Pops != s.Pushes {
		t.Fatalf("item flow broken at quiescence: pushed %d, popped %d", s.Pushes, s.Pops)
	}
	if s.BatchPushes > pushKCalls.Load() {
		t.Fatalf("Stats.BatchPushes = %d exceeds the %d PushK calls issued", s.BatchPushes, pushKCalls.Load())
	}
	if s.BatchPops > popKCalls.Load() {
		t.Fatalf("Stats.BatchPops = %d exceeds the %d PopKInto calls issued", s.BatchPops, popKCalls.Load())
	}
	if s.PopFailures == 0 {
		t.Fatal("Stats.PopFailures = 0: the final failed drain loops went uncounted")
	}
}

func statsAccounting(t *testing.T, mk Factory) {
	d := mustNew(t, mk, core.Options[int64]{Places: 2, Seed: 12})
	for i := int64(0); i < 100; i++ {
		d.Push(int(i)%2, 16, i)
	}
	got := append(popAll(d, 0, 2048), popAll(d, 1, 2048)...)
	s := d.Stats()
	if s.Pushes != 100 {
		t.Fatalf("Stats.Pushes = %d, want 100", s.Pushes)
	}
	if s.Pops != int64(len(got)) || s.Pops != 100 {
		t.Fatalf("Stats.Pops = %d, drained %d, want 100", s.Pops, len(got))
	}
	if s.PopFailures == 0 {
		t.Fatalf("Stats.PopFailures = 0, the drain loops must have failed at the end")
	}
}

// shedNeverPopped models the scheduler's admission gate at the data
// structure contract level: injector places push only the tasks an
// admission threshold lets through — sub-threshold ("shed") tasks are
// counted and dropped before the structure ever sees them — while
// worker places drain concurrently. The contract being pinned: a shed
// task can never surface from a pop (it was never stored), the admitted
// multiset is delivered exactly once, and the structure's own
// Shed/Deferred/Readmitted counters stay zero — admission control lives
// above the DS, and a structure quietly counting its own "sheds" would
// break the scheduler's task-flow accounting.
func shedNeverPopped(t *testing.T, mk Factory) {
	const workers, injectors = 3, 2
	perInjector := 12000
	if testing.Short() {
		perInjector = 3000
	}
	// Values double as priorities (Less is <). The gate admits the most
	// urgent three quarters of the value space, exactly like a
	// backpressure threshold at 75% of the priority range.
	total := int64(injectors * perInjector)
	threshold := total * 3 / 4
	d := mustNew(t, mk, core.Options[int64]{Places: workers + injectors, Seed: 33})

	var producing atomic.Int32
	producing.Store(injectors)
	var admitted, shed atomic.Int64
	var wg sync.WaitGroup
	for inj := 0; inj < injectors; inj++ {
		wg.Add(1)
		go func(inj int) {
			defer wg.Done()
			defer producing.Add(-1)
			r := xrand.New(uint64(inj)*313 + 7)
			for i := 0; i < perInjector; i++ {
				v := int64(inj*perInjector + i)
				if v >= threshold {
					// Gated: the task never reaches the structure.
					shed.Add(1)
					continue
				}
				d.Push(workers+inj, 1+r.Intn(512), v)
				admitted.Add(1)
			}
		}(inj)
	}

	counts := make([][]int64, workers)
	for pl := 0; pl < workers; pl++ {
		wg.Add(1)
		go func(pl int) {
			defer wg.Done()
			var mine []int64
			fails := 0
			for {
				if v, ok := d.Pop(pl); ok {
					mine = append(mine, v)
					fails = 0
					continue
				}
				if producing.Load() > 0 {
					runtime.Gosched()
					continue
				}
				fails++
				if fails > 1<<14 {
					break
				}
			}
			counts[pl] = mine
		}(pl)
	}
	wg.Wait()

	leftovers := popAll(d, 0, 1<<15)
	seen := make(map[int64]int, admitted.Load())
	delivered := int64(0)
	check := func(v int64) {
		if v >= threshold {
			t.Fatalf("shed task %d surfaced from a pop", v)
		}
		seen[v]++
		delivered++
	}
	for _, mine := range counts {
		for _, v := range mine {
			check(v)
		}
	}
	for _, v := range leftovers {
		check(v)
	}
	if delivered != admitted.Load() {
		t.Fatalf("delivered %d of %d admitted tasks (%d shed)", delivered, admitted.Load(), shed.Load())
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("task %d delivered %d times", v, c)
		}
	}
	s := d.Stats()
	if s.Pushes != admitted.Load() {
		t.Fatalf("Stats.Pushes = %d, gate admitted %d", s.Pushes, admitted.Load())
	}
	if s.Shed != 0 || s.Deferred != 0 || s.Readmitted != 0 {
		t.Fatalf("raw DS counted admission outcomes itself: shed=%d deferred=%d readmitted=%d",
			s.Shed, s.Deferred, s.Readmitted)
	}
	if s.TenantShed != 0 || s.TenantDeferred != 0 {
		t.Fatalf("raw DS counted tenant admission outcomes itself: shed=%d deferred=%d",
			s.TenantShed, s.TenantDeferred)
	}
	if shed.Load() != total-admitted.Load() {
		t.Fatalf("gate accounting broken: %d shed + %d admitted != %d offered",
			shed.Load(), admitted.Load(), total)
	}
}

// tenantQuotaNeverStarves models the tenant-fairness gate (internal/
// fair driving internal/sched) at the data structure contract level: a
// scripted weighted-fair gate sits above the DS, with a 10x hot tenant
// whose tasks all claim the most urgent priorities (adversarial
// priority inflation). Per window each tenant gets a weight-
// proportional quota and a starvation floor; floor admissions bypass
// the priority threshold, over-quota tasks are dropped above the DS.
// The contract being pinned: every floor-admitted task of every cold
// tenant surfaces from a pop exactly once (the structure cannot lose
// the starvation floor's work), the hot tenant's deliveries are capped
// by its scripted quota, and the structure's own TenantShed/
// TenantDeferred counters stay zero — tenant admission control lives
// above the DS, exactly like the scalar admission counters.
func tenantQuotaNeverStarves(t *testing.T, mk Factory) {
	const workers = 3
	const tenants = 4
	weights := [tenants]int64{7, 1, 1, 1}
	// Hot tenant submits 10x each cold tenant's per-window arrivals.
	arrivals := [tenants]int{100, 10, 10, 10}
	windows := 60
	if testing.Short() {
		windows = 20
	}
	// Per-window capacity 40 against 130 arrivals (~3.2x overload).
	// Weight-proportional quotas with a floor of one tenth of capacity
	// split by weight (minimum 1), mirroring fair.Waterfill's shape.
	const capacity = 40
	var wsum int64
	for _, w := range weights {
		wsum += w
	}
	var quotas, floors [tenants]int64
	for i, w := range weights {
		quotas[i] = capacity * w / wsum
		floors[i] = capacity * w / (10 * wsum)
		if floors[i] < 1 {
			floors[i] = 1
		}
	}

	d := mustNew(t, mk, core.Options[int64]{Places: workers + tenants, Seed: 37})

	var producing atomic.Int32
	producing.Store(tenants)
	var admitted [tenants]atomic.Int64
	var wg sync.WaitGroup
	for ten := 0; ten < tenants; ten++ {
		wg.Add(1)
		go func(ten int) {
			defer wg.Done()
			defer producing.Add(-1)
			r := xrand.New(uint64(ten)*613 + 11)
			// The priority threshold of the scalar backpressure gate:
			// only the most urgent half of the k-range passes when a
			// task is over its tenant's floor. The hot tenant inflates —
			// every task claims a top-band priority — while cold
			// tenants draw uniformly, so without floors the threshold
			// alone would let the hot tenant crowd the others out.
			seq := 0
			for w := 0; w < windows; w++ {
				winSeq := int64(0)
				for i := 0; i < arrivals[ten]; i++ {
					var prio int
					if ten == 0 {
						prio = 1 + r.Intn(64) // inflated: always top band
					} else {
						prio = 1 + r.Intn(512)
					}
					winSeq++
					switch {
					case winSeq <= floors[ten]:
						// Floor admission bypasses the threshold.
					case winSeq > quotas[ten]:
						seq++
						continue // over quota: dropped above the DS
					case prio > 256:
						seq++
						continue // under quota but below threshold
					}
					d.Push(workers+ten, prio, int64((ten*windows*200+seq)*tenants+ten))
					seq++
					admitted[ten].Add(1)
				}
			}
		}(ten)
	}

	counts := make([][]int64, workers)
	for pl := 0; pl < workers; pl++ {
		wg.Add(1)
		go func(pl int) {
			defer wg.Done()
			var mine []int64
			fails := 0
			for {
				if v, ok := d.Pop(pl); ok {
					mine = append(mine, v)
					fails = 0
					continue
				}
				if producing.Load() > 0 {
					runtime.Gosched()
					continue
				}
				fails++
				if fails > 1<<14 {
					break
				}
			}
			counts[pl] = mine
		}(pl)
	}
	wg.Wait()

	leftovers := popAll(d, 0, 1<<15)
	seen := map[int64]int{}
	var delivered [tenants]int64
	total := int64(0)
	check := func(v int64) {
		seen[v]++
		delivered[int(v)%tenants]++
		total++
	}
	for _, mine := range counts {
		for _, v := range mine {
			check(v)
		}
	}
	for _, v := range leftovers {
		check(v)
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("task %d delivered %d times", v, c)
		}
	}
	var wantTotal int64
	for ten := 0; ten < tenants; ten++ {
		adm := admitted[ten].Load()
		wantTotal += adm
		if delivered[ten] != adm {
			t.Fatalf("tenant %d: delivered %d of %d admitted tasks", ten, delivered[ten], adm)
		}
		// The starvation guarantee at the delivery level: every tenant's
		// floor admissions made it through the structure, so no tenant
		// with a positive weight went unserved in any window.
		if minServed := floors[ten] * int64(windows); delivered[ten] < minServed {
			t.Fatalf("tenant %d starved: delivered %d, floor guarantees %d", ten, delivered[ten], minServed)
		}
		// And the quota bound: the gate capped even the inflated hot
		// tenant at its weight share of capacity.
		if maxServed := quotas[ten] * int64(windows); delivered[ten] > maxServed {
			t.Fatalf("tenant %d over quota: delivered %d, cap %d", ten, delivered[ten], maxServed)
		}
	}
	if total != wantTotal {
		t.Fatalf("delivered %d tasks, gate admitted %d", total, wantTotal)
	}
	s := d.Stats()
	if s.Pushes != wantTotal {
		t.Fatalf("Stats.Pushes = %d, gate admitted %d", s.Pushes, wantTotal)
	}
	if s.TenantShed != 0 || s.TenantDeferred != 0 {
		t.Fatalf("raw DS counted tenant admission outcomes itself: shed=%d deferred=%d",
			s.TenantShed, s.TenantDeferred)
	}
	if s.Shed != 0 || s.Deferred != 0 || s.Readmitted != 0 {
		t.Fatalf("raw DS counted admission outcomes itself: shed=%d deferred=%d readmitted=%d",
			s.Shed, s.Deferred, s.Readmitted)
	}
}
