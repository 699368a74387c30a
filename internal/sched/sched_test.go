package sched

import (
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

var allStrategies = []Strategy{
	WorkStealing, Centralized, Hybrid, Relaxed, WorkStealingStealOne, HybridNoSpy, GlobalHeap, RelaxedSampleTwo,
}

func intLess(a, b int64) bool { return a < b }

// treeTask spawns two children until depth 0; the executed count must be
// exactly 2^(depth+1) − 1 regardless of strategy and place count.
func TestSpawnTreeAllStrategies(t *testing.T) {
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			t.Parallel()
			for _, places := range []int{1, 2, 4, 8} {
				const depth = 12
				var leaves atomic.Int64
				s, err := New(Config[int64]{
					Places:   places,
					Strategy: strat,
					K:        64,
					Less:     intLess,
					Execute: func(ctx *Ctx[int64], v int64) {
						if v == 0 {
							leaves.Add(1)
							return
						}
						ctx.Spawn(v - 1)
						ctx.Spawn(v - 1)
					},
					Seed: uint64(places),
				})
				if err != nil {
					t.Fatal(err)
				}
				leaves.Store(0)
				st, err := s.Run(depth)
				if err != nil {
					t.Fatal(err)
				}
				wantTotal := int64(1)<<(depth+1) - 1
				if st.Executed != wantTotal {
					t.Fatalf("places=%d executed %d tasks, want %d", places, st.Executed, wantTotal)
				}
				if got := leaves.Load(); got != 1<<depth {
					t.Fatalf("places=%d leaves = %d, want %d", places, got, 1<<depth)
				}
				if st.Spawned != wantTotal {
					t.Fatalf("places=%d spawned %d, want %d", places, st.Spawned, wantTotal)
				}
				if st.DS.Pushes != wantTotal {
					t.Fatalf("places=%d DS pushes = %d, want %d", places, st.DS.Pushes, wantTotal)
				}
			}
		})
	}
}

func TestPriorityOrderSinglePlace(t *testing.T) {
	// One place, all roots pre-pushed: the execution order must follow
	// priorities for every temporally-relaxed strategy (a single place
	// sees all its own tasks in its local queue). Relaxed/SampleAll is
	// exact in quiescence but pops interleave with pushes here, so it is
	// checked only for no-loss.
	for _, strat := range []Strategy{WorkStealing, Centralized, Hybrid} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			var order []int64
			s, err := New(Config[int64]{
				Places:   1,
				Strategy: strat,
				K:        512,
				Less:     intLess,
				Execute: func(ctx *Ctx[int64], v int64) {
					order = append(order, v)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			roots := []int64{5, 3, 9, 1, 7, 2, 8, 4, 6, 0}
			if _, err := s.Run(roots...); err != nil {
				t.Fatal(err)
			}
			if len(order) != len(roots) {
				t.Fatalf("executed %d, want %d", len(order), len(roots))
			}
			for i := 1; i < len(order); i++ {
				if order[i] < order[i-1] {
					t.Fatalf("%s: priority order violated: %v", strat, order)
				}
			}
		})
	}
}

func TestFinishRegionWaits(t *testing.T) {
	for _, strat := range []Strategy{WorkStealing, Centralized, Hybrid} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			var inner, afterFinish atomic.Int64
			s, err := New(Config[int64]{
				Places:   4,
				Strategy: strat,
				K:        16,
				Less:     intLess,
				Execute: func(ctx *Ctx[int64], v int64) {
					switch {
					case v == 1000:
						// Root: spawn a subtree inside a finish region;
						// all of it must complete before the line after
						// Finish runs.
						ctx.Finish(func() {
							for i := int64(0); i < 50; i++ {
								ctx.Spawn(i)
							}
						})
						if got := inner.Load(); got != 50 {
							t.Errorf("finish returned with %d/50 inner tasks done", got)
						}
						afterFinish.Add(1)
					default:
						inner.Add(1)
					}
				},
				Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			st, err := s.Run(1000)
			if err != nil {
				t.Fatal(err)
			}
			if afterFinish.Load() != 1 {
				t.Fatalf("root did not complete")
			}
			if st.Executed != 51 {
				t.Fatalf("executed %d, want 51", st.Executed)
			}
		})
	}
}

func TestNestedFinish(t *testing.T) {
	var log atomic.Int64
	s, err := New(Config[int64]{
		Places:   4,
		Strategy: Hybrid,
		K:        8,
		Less:     intLess,
		Execute: func(ctx *Ctx[int64], v int64) {
			switch v {
			case 1:
				ctx.Finish(func() {
					ctx.Spawn(2)
					ctx.Spawn(2)
				})
				if log.Load() < 6 { // 2 children, each spawning 2 leaves
					panic("outer finish returned before nested work completed")
				}
			case 2:
				ctx.Finish(func() {
					ctx.Spawn(3)
					ctx.Spawn(3)
				})
				log.Add(1)
			case 3:
				log.Add(1)
			}
		},
		Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != 7 {
		t.Fatalf("executed %d, want 7", st.Executed)
	}
}

func TestStaleEliminationAccounting(t *testing.T) {
	// Tasks spawned twice where the second spawn supersedes the first: the
	// stale predicate retires superseded tasks, and executed + eliminated
	// must equal spawned.
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			const n = 2000
			gen := make([]atomic.Int64, n)
			s, err := New(Config[int64]{
				Places:   4,
				Strategy: strat,
				K:        32,
				Less:     intLess,
				Stale: func(v int64) bool {
					id, g := v%n, v/n
					return gen[id].Load() != g
				},
				Execute: func(ctx *Ctx[int64], v int64) {
					if v/n == 0 { // first generation spawns its successor
						id := v % n
						gen[id].Store(1)
						ctx.Spawn(n + id)
					}
				},
				Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			roots := make([]int64, n)
			for i := range roots {
				roots[i] = int64(i)
			}
			st, err := s.Run(roots...)
			if err != nil {
				t.Fatal(err)
			}
			if st.Executed+st.Eliminated != st.Spawned {
				t.Fatalf("executed %d + eliminated %d != spawned %d",
					st.Executed, st.Eliminated, st.Spawned)
			}
			if st.Spawned != 2*n {
				t.Fatalf("spawned %d, want %d", st.Spawned, 2*n)
			}
		})
	}
}

func TestPerTaskK(t *testing.T) {
	var count atomic.Int64
	s, err := New(Config[int64]{
		Places:   2,
		Strategy: Centralized,
		K:        512,
		Less:     intLess,
		Execute: func(ctx *Ctx[int64], v int64) {
			count.Add(1)
			if v > 0 {
				ctx.SpawnK(1, v-1) // strict k per task
			}
		},
		Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != 101 || count.Load() != 101 {
		t.Fatalf("executed %d, want 101", st.Executed)
	}
}

func TestRunReusable(t *testing.T) {
	var count atomic.Int64
	s, err := New(Config[int64]{
		Places:   3,
		Strategy: Hybrid,
		K:        8,
		Less:     intLess,
		Execute: func(ctx *Ctx[int64], v int64) {
			count.Add(1)
			if v > 0 {
				ctx.Spawn(v - 1)
			}
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		st, err := s.Run(9)
		if err != nil {
			t.Fatal(err)
		}
		if st.Executed != 10 {
			t.Fatalf("round %d executed %d, want 10", round, st.Executed)
		}
	}
	if count.Load() != 30 {
		t.Fatalf("total executions %d, want 30", count.Load())
	}
}

func TestEverythingStale(t *testing.T) {
	// A Stale predicate that condemns every task: the scheduler must
	// terminate with zero executions and full elimination accounting,
	// for every strategy (this exercises the elimination path inside the
	// very first pops, including the centralized probe and hybrid spy).
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			s, err := New(Config[int64]{
				Places:   3,
				Strategy: strat,
				K:        16,
				Less:     intLess,
				Stale:    func(int64) bool { return true },
				Execute: func(ctx *Ctx[int64], v int64) {
					t.Error("stale task executed")
				},
				Seed: 9,
			})
			if err != nil {
				t.Fatal(err)
			}
			st, err := s.Run(1, 2, 3, 4, 5)
			if err != nil {
				t.Fatal(err)
			}
			if st.Executed != 0 || st.Eliminated != 5 {
				t.Fatalf("executed %d eliminated %d, want 0/5", st.Executed, st.Eliminated)
			}
		})
	}
}

func TestSingleRootSinglePlace(t *testing.T) {
	for _, strat := range allStrategies {
		s, err := New(Config[int64]{
			Places:   1,
			Strategy: strat,
			Less:     intLess,
			Execute:  func(ctx *Ctx[int64], v int64) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Run(7)
		if err != nil {
			t.Fatal(err)
		}
		if st.Executed != 1 {
			t.Fatalf("%s: executed %d, want 1", strat, st.Executed)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	exec := func(ctx *Ctx[int64], v int64) {}
	cases := []Config[int64]{
		{Places: 0, Less: intLess, Execute: exec},
		{Places: 2, Execute: exec},
		{Places: 2, Less: intLess},
		{Places: 2, Less: intLess, Execute: exec, K: -1},
		{Places: 2, Less: intLess, Execute: exec, Strategy: Strategy(99)},
		// Upper bounds: a batch beyond the structures' per-episode pop
		// capacity or a stickiness beyond any meaningful re-sampling
		// horizon is pathological, not aggressive (see
		// TestConfigKnobUpperBounds for the exact-boundary coverage).
		{Places: 2, Less: intLess, Execute: exec, Batch: MaxBatch + 1},
		{Places: 2, Less: intLess, Execute: exec, Stickiness: MaxStickiness + 1},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRunRequiresRoots(t *testing.T) {
	s, err := New(Config[int64]{
		Places: 1, Less: intLess,
		Execute: func(ctx *Ctx[int64], v int64) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("Run with no roots accepted")
	}
}

func TestCtxAccessors(t *testing.T) {
	s, err := New(Config[int64]{
		Places:   2,
		Strategy: WorkStealing,
		Less:     intLess,
		Execute: func(ctx *Ctx[int64], v int64) {
			if p := ctx.Place(); p < 0 || p >= 2 {
				panic("place out of range")
			}
			if ctx.Rand() == nil {
				panic("nil rng")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1, 2, 3); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyStrings(t *testing.T) {
	want := map[Strategy]string{
		WorkStealing:         "work-stealing",
		Centralized:          "centralized",
		Hybrid:               "hybrid",
		Relaxed:              "relaxed",
		WorkStealingStealOne: "ws-steal-one",
		HybridNoSpy:          "hybrid-no-spy",
		GlobalHeap:           "global-heap",
		RelaxedSampleTwo:     "relaxed-two",
		Strategy(42):         "strategy(42)",
		Strategy(-1):         "strategy(-1)",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("%d.String() = %q, want %q", int(s), got, w)
		}
	}
}

// TestRunTerminatesOnMaxPriority: a task whose Priority is MaxInt64 —
// the value an empty relaxed lane advertises — must still be popped, or
// the ledgers never balance and Run never returns.
func TestRunTerminatesOnMaxPriority(t *testing.T) {
	for _, strat := range []Strategy{Relaxed, RelaxedSampleTwo} {
		var executed atomic.Int64
		s, err := New(Config[int64]{
			Places:   2,
			Strategy: strat,
			Less:     intLess,
			Priority: func(int64) int64 { return math.MaxInt64 },
			Execute: func(ctx *Ctx[int64], v int64) {
				executed.Add(1)
				if v > 0 {
					ctx.Spawn(v - 1)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := s.Run(3)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if got := executed.Load(); got != 4 {
				t.Errorf("%v: executed %d tasks, want 4", strat, got)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: Run did not return with every task at Priority MaxInt64 (executed %d of 4)", strat, executed.Load())
		}
	}
}

// TestParseStrategyRoundTrip pins the one strategy table: Strategies
// lists every declared constant, each parses back from the name String
// prints, and anything else is rejected with the vocabulary in the error.
func TestParseStrategyRoundTrip(t *testing.T) {
	got := Strategies()
	if len(got) != len(allStrategies) {
		t.Fatalf("Strategies() = %v, want the %d declared constants %v", got, len(allStrategies), allStrategies)
	}
	listed := map[Strategy]bool{}
	for _, s := range got {
		listed[s] = true
		back, err := ParseStrategy(s.String())
		if err != nil || back != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", s.String(), back, err, s)
		}
	}
	for _, s := range allStrategies {
		if !listed[s] {
			t.Errorf("Strategies() misses %v", s)
		}
	}
	for _, name := range []string{"", "workstealing", "Hybrid", " hybrid", "strategy(2)"} {
		_, err := ParseStrategy(name)
		if err == nil {
			t.Errorf("ParseStrategy(%q) accepted", name)
			continue
		}
		for _, s := range got {
			if !strings.Contains(err.Error(), s.String()) {
				t.Errorf("ParseStrategy(%q) error %q does not list %q", name, err, s)
			}
		}
	}
	list, err := ParseStrategies("hybrid, relaxed-two,centralized")
	if want := []Strategy{Hybrid, RelaxedSampleTwo, Centralized}; err != nil || !slices.Equal(list, want) {
		t.Errorf("ParseStrategies = %v, %v; want %v", list, err, want)
	}
	if _, err := ParseStrategies("hybrid,,relaxed"); err == nil {
		t.Error("ParseStrategies accepted an empty list element")
	}
}

func BenchmarkSpawnTree(b *testing.B) {
	for _, strat := range []Strategy{WorkStealing, Centralized, Hybrid} {
		b.Run(strat.String(), func(b *testing.B) {
			s, err := New(Config[int64]{
				Places:   4,
				Strategy: strat,
				K:        512,
				Less:     intLess,
				Execute: func(ctx *Ctx[int64], v int64) {
					if v > 0 {
						ctx.Spawn(v - 1)
						ctx.Spawn(v - 1)
					}
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
