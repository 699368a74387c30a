package sssp

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/sched"
)

// TestReusedSolverMatchesFresh: Seed keeps its meaning on a reused
// solver. At one place a run is deterministic, so a solver that was
// built with another seed and already solved another graph — what
// Parallel's pool hands out — must, once given seed s, repeat a fresh
// solver's run with seed s exactly: the same distances, relaxations,
// task counts and data-structure counters, for every strategy, on its
// first reuse and on the next.
func TestReusedSolverMatchesFresh(t *testing.T) {
	g := graph.ErdosRenyi(2000, 0.004, 21)
	other := graph.ErdosRenyi(1500, 0.01, 22)
	for _, strat := range parallelStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			t.Parallel()
			opt := Options{Places: 1, Strategy: strat, K: 48, Seed: 5}
			fresh, err := NewSolver(g.N, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Solve(g, 3)
			if err != nil {
				t.Fatal(err)
			}
			used, err := NewSolver(g.N, Options{Places: 1, Strategy: strat, K: 48, Seed: 77})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := used.Solve(other, 0); err != nil {
				t.Fatal(err)
			}
			used.opt.Seed = opt.Seed // as Parallel does with a pooled solver
			for round := 1; round <= 2; round++ {
				got, err := used.Solve(g, 3)
				if err != nil {
					t.Fatal(err)
				}
				if !Equal(got.Dist, want.Dist, 0) {
					t.Fatalf("round %d: distances differ from the fresh solver's", round)
				}
				if got.NodesRelaxed != want.NodesRelaxed ||
					got.Sched.Executed != want.Sched.Executed ||
					got.Sched.Eliminated != want.Sched.Eliminated ||
					got.Sched.Spawned != want.Sched.Spawned {
					t.Fatalf("round %d: relaxed/executed/eliminated/spawned %d/%d/%d/%d, fresh %d/%d/%d/%d", round,
						got.NodesRelaxed, got.Sched.Executed, got.Sched.Eliminated, got.Sched.Spawned,
						want.NodesRelaxed, want.Sched.Executed, want.Sched.Eliminated, want.Sched.Spawned)
				}
				if got.Sched.DS != want.Sched.DS {
					t.Fatalf("round %d: structure counters\n%v\nfresh\n%v", round, got.Sched.DS, want.Sched.DS)
				}
			}
		})
	}
}

// TestParallelReuseAllocatesOnlyDist: a repeated Parallel call of one
// shape takes its solver from the pool, and the hybrid structure hands
// its blocks out again, so a solve allocates its Result.Dist and a
// constant beyond it (the per-run worker contexts, generators and the
// global list's sentinel), not its tasks' storage. The median solve is
// judged: with two places running at once, a solve now and then takes
// more blocks or a deeper queue than any before it and grows the kept
// storage to that new high-water mark.
func TestParallelReuseAllocatesOnlyDist(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a share of what it is given")
	}
	g := graph.ErdosRenyi(3000, 0.003, 8)
	opt := Options{Places: 2, Strategy: sched.Hybrid, K: 512}
	// No collection may empty the pool while it is measured.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 4; i++ {
		opt.Seed = uint64(i)
		if _, err := Parallel(g, 0, opt); err != nil {
			t.Fatal(err)
		}
	}
	const solves = 15
	var bytes, objects []uint64
	for i := 0; i < solves; i++ {
		opt.Seed = uint64(100 + i)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Parallel(g, 0, opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = append(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = append(objects, after.Mallocs-before.Mallocs)
	}
	slices.Sort(bytes)
	slices.Sort(objects)
	b, o := bytes[solves/2], objects[solves/2]
	dist := uint64(8 * g.N)
	t.Logf("median solve: %d B in %d objects; Result.Dist is %d B", b, o, dist)
	if b > dist+16<<10 || o > 64 {
		t.Fatalf("the median repeated solve allocates %d B in %d objects; want Result.Dist (%d B) plus at most 16 KB in 64 objects",
			b, o, dist)
	}
}

// TestParallelKeepsHeapFlat: what a pooled solver keeps between solves
// is reused, not added to, so 20 more solves leave the live heap where
// it was. The test holds the solver Parallel would pool and reseeds it
// as Parallel does, so both heap readings count exactly one solver:
// under the race detector sync.Pool drops a share of what it is given,
// and a baseline read through the pool sometimes counted none.
func TestParallelKeepsHeapFlat(t *testing.T) {
	g := graph.ErdosRenyi(5000, 0.002, 9)
	sv, err := NewSolver(g.N, Options{Places: 2, Strategy: sched.Hybrid, K: 512})
	if err != nil {
		t.Fatal(err)
	}
	inuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	solve := func(seed uint64) {
		sv.opt.Seed = seed
		if _, err := sv.Solve(g, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		solve(uint64(i))
	}
	h0 := inuse()
	for i := 0; i < 20; i++ {
		solve(uint64(10 + i))
	}
	h20 := inuse()
	runtime.KeepAlive(sv)
	t.Logf("HeapInuse %d KB after 3 solves, %d KB after 20 more", h0>>10, h20>>10)
	// Slack for high-water marks; storage kept but not reused would add
	// a solve's tasks, ≈ 0.5 MB, per solve.
	if h20 > h0+h0/2 {
		t.Fatalf("HeapInuse grew from %d KB to %d KB over 20 solves: a solve's storage is being kept, not reused", h0>>10, h20>>10)
	}
}
