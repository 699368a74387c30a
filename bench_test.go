// Benchmarks regenerating every figure of the paper's evaluation section
// at a reduced default scale, so `go test -bench=.` finishes in minutes.
// The cmd/ binaries run the same experiments at the paper's full scale
// (n = 10000, p = 0.5, 20 graphs); see DESIGN.md's experiment index and
// EXPERIMENTS.md for recorded full-scale results.
//
// Mapping (DESIGN.md ids):
//
//	FIG3-LEFT/MID/RIGHT  -> BenchmarkFig3Simulation, BenchmarkFig3Theory
//	FIG4-TIME/RELAX      -> BenchmarkFig4Scaling/*
//	FIG5-TIME/RELAX      -> BenchmarkFig5KSweep/*
//	ABL-LOCALQUEUE       -> BenchmarkLocalQueue (Less-ordered vs keyed container)
//	ABL-STEAL            -> BenchmarkAblationSteal/*
//	ABL-SPY              -> BenchmarkAblationSpy/*
//	EXT-STRUCT           -> BenchmarkExtensionStructural/*
//	EXT-MOSP             -> BenchmarkMultiObjective/*
//	GLOBAL-PQ            -> BenchmarkGlobalHeapBaseline/*
//	GRAN                 -> BenchmarkGranularity/*
//	SERVE                -> BenchmarkServeMode/*, BenchmarkServeOpenLoop/*
package repro_test

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/pq"
	"repro/internal/sched"
	"repro/internal/sssp"
	"repro/internal/xrand"
)

// benchCommon is the reduced-scale workload for benchmarks.
func benchCommon() harness.Common {
	return harness.Common{N: 2000, EdgeP: 0.5, Graphs: 1, Seed: 20140215}
}

// BenchmarkFig3Simulation regenerates the Figure 3 left/middle series:
// settled nodes and h*_t per phase for ρ ∈ {0, 128, 512}.
func BenchmarkFig3Simulation(b *testing.B) {
	cfg := harness.Fig3Config{
		Common: benchCommon(),
		Places: 80,
		Rhos:   []int{0, 128, 512},
		Theory: false,
	}
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for ri, rho := range res.Rhos {
				b.ReportMetric(res.TotalRlx[ri], fmt.Sprintf("relaxed_rho%d", rho))
			}
		}
	}
}

// BenchmarkFig3Theory regenerates the Figure 3 right panel: the Theorem 5
// lower bound against the simulated settled counts at ρ = 0.
func BenchmarkFig3Theory(b *testing.B) {
	cfg := harness.Fig3Config{
		Common: benchCommon(),
		Places: 80,
		Rhos:   []int{0},
		Theory: true,
	}
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			sumB, sumS := 0.0, 0.0
			for ph := range res.Bound {
				sumB += res.Bound[ph]
				sumS += res.SimRho0[ph]
			}
			b.ReportMetric(sumB, "bound_settled")
			b.ReportMetric(sumS, "sim_settled")
		}
	}
}

// BenchmarkFig4Scaling regenerates Figure 4: total execution time and
// nodes relaxed versus P for sequential, work-stealing, centralized and
// hybrid (k = 512).
func BenchmarkFig4Scaling(b *testing.B) {
	common := benchCommon()
	g := repro.ErdosRenyi(common.N, common.EdgeP, common.Seed)
	want, reachable := repro.Dijkstra(g, 0)
	b.Run("sequential/P=1", func(b *testing.B) {
		var relaxed int64
		for i := 0; i < b.N; i++ {
			_, relaxed = repro.Dijkstra(g, 0)
		}
		b.ReportMetric(float64(relaxed), "nodes_relaxed")
	})
	for _, strat := range []repro.Strategy{repro.WorkStealing, repro.Centralized, repro.Hybrid} {
		for _, places := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/P=%d", strat, places), func(b *testing.B) {
				sv, err := sssp.NewSolver(g.N, sssp.Options{
					Places: places, Strategy: strat, K: 512, Seed: common.Seed,
				})
				if err != nil {
					b.Fatal(err)
				}
				var total int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := sv.Solve(g.Graph, 0)
					if err != nil {
						b.Fatal(err)
					}
					total += res.NodesRelaxed
					if res.NodesRelaxed < reachable {
						b.Fatalf("relaxed %d < reachable %d", res.NodesRelaxed, reachable)
					}
					if i == 0 && !sssp.Equal(res.Dist, want, 1e-9) {
						b.Fatal("distance verification failed")
					}
				}
				b.ReportMetric(float64(total)/float64(b.N), "nodes_relaxed")
			})
		}
	}
}

// BenchmarkFig5KSweep regenerates Figure 5: total execution time and nodes
// relaxed versus k for the centralized and hybrid structures at fixed P.
func BenchmarkFig5KSweep(b *testing.B) {
	common := benchCommon()
	g := repro.ErdosRenyi(common.N, common.EdgeP, common.Seed)
	want, _ := repro.Dijkstra(g, 0)
	const places = 8
	for _, strat := range []repro.Strategy{repro.Centralized, repro.Hybrid} {
		for _, k := range []int{0, 4, 32, 256, 512, 4096, 32768} {
			b.Run(fmt.Sprintf("%s/k=%d", strat, k), func(b *testing.B) {
				kmax := 512
				if k > kmax {
					kmax = k
				}
				sv, err := sssp.NewSolver(g.N, sssp.Options{
					Places: places, Strategy: strat, K: k, KMax: kmax, Seed: common.Seed,
				})
				if err != nil {
					b.Fatal(err)
				}
				var total int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := sv.Solve(g.Graph, 0)
					if err != nil {
						b.Fatal(err)
					}
					total += res.NodesRelaxed
					if i == 0 && !sssp.Equal(res.Dist, want, 1e-9) {
						b.Fatal("distance verification failed")
					}
				}
				b.ReportMetric(float64(total)/float64(b.N), "nodes_relaxed")
			})
		}
	}
}

// BenchmarkAblationSteal contrasts steal-half with steal-one (ABL-STEAL):
// the paper argues steal-half spreads tasks faster through the system.
func BenchmarkAblationSteal(b *testing.B) {
	common := benchCommon()
	g := repro.ErdosRenyi(common.N, common.EdgeP, common.Seed)
	for _, strat := range []repro.Strategy{repro.WorkStealing, repro.WorkStealingStealOne} {
		b.Run(strat.String(), func(b *testing.B) {
			sv, err := sssp.NewSolver(g.N, sssp.Options{
				Places: 8, Strategy: strat, K: 512, Seed: common.Seed,
			})
			if err != nil {
				b.Fatal(err)
			}
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sv.Solve(g.Graph, 0)
				if err != nil {
					b.Fatal(err)
				}
				total += res.NodesRelaxed
			}
			b.ReportMetric(float64(total)/float64(b.N), "nodes_relaxed")
		})
	}
}

// BenchmarkAblationSpy contrasts the hybrid structure with and without
// spying (ABL-SPY): the paper credits spying for halving wasted work at
// very large k (§5.5).
func BenchmarkAblationSpy(b *testing.B) {
	common := benchCommon()
	g := repro.ErdosRenyi(common.N, common.EdgeP, common.Seed)
	for _, strat := range []repro.Strategy{repro.Hybrid, repro.HybridNoSpy} {
		b.Run(strat.String(), func(b *testing.B) {
			sv, err := sssp.NewSolver(g.N, sssp.Options{
				Places: 8, Strategy: strat, K: 8192, KMax: 8192, Seed: common.Seed,
			})
			if err != nil {
				b.Fatal(err)
			}
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sv.Solve(g.Graph, 0)
				if err != nil {
					b.Fatal(err)
				}
				total += res.NodesRelaxed
			}
			b.ReportMetric(float64(total)/float64(b.N), "nodes_relaxed")
		})
	}
}

// BenchmarkLocalQueue prices one pop + push on a place-local queue held
// at 32 k references (the hold model: the new priority is the popped one
// plus a random increment, as in SSSP): the Less-ordered heap
// core.NewLocalQueue builds for a structure without a numeric
// projection, the keyed heap, and the windowed bucket queue it builds
// with one — on uniform integer increments, on the bit patterns of
// float distances (sssp's keys), and on keys so close together that
// they share one band until the queue narrows its bands to single keys.
//
// The lane32 rows price the same pop + push at the shape of a relaxed
// lane under the serve path instead: 32 entries deep, a 32-byte task
// held by value, fresh keys uniform over 2^20 — the Less-ordered heap
// of a lane without a projection against the keyed heap of a lane with
// one, both called directly, as the lanes call them.
func BenchmarkLocalQueue(b *testing.B) {
	const depth = 32 << 10
	type task struct{ prio int64 }
	type queue = pq.Queue[pq.Keyed[*task]]
	less := func(x, y pq.Keyed[*task]) bool { return x.V.prio < y.V.prio }
	addFloat := func(prio int64, d float64) int64 {
		return int64(math.Float64bits(math.Float64frombits(uint64(prio)) + d))
	}
	for _, c := range []struct {
		name  string
		keyed bool
		mk    func() queue
	}{
		{"binheap-less", false, func() queue { return core.NewLocalQueue(false, less) }},
		{"keyheap", true, func() queue { return pq.NewKeyHeap[*task]() }},
		{"keywindow", true, func() queue { return core.NewLocalQueue(true, less) }},
	} {
		for _, ks := range []struct {
			name string
			next func(r *xrand.Rand, prio int64) int64
		}{
			{"uniform", func(r *xrand.Rand, prio int64) int64 { return prio + int64(r.Intn(1<<20)) }},
			{"floatbits", func(r *xrand.Rand, prio int64) int64 { return addFloat(prio, r.Float64()) }},
			{"oneband", func(r *xrand.Rand, prio int64) int64 { return prio + int64(r.Intn(2)) }},
		} {
			b.Run(c.name+"/"+ks.name, func(b *testing.B) {
				q := c.mk()
				push := func(t *task) {
					e := pq.Keyed[*task]{V: t}
					if c.keyed {
						e.Key = t.prio
					}
					q.Push(e)
				}
				r := xrand.New(1)
				tasks := make([]task, depth)
				for i := range tasks {
					tasks[i].prio = ks.next(r, 0)
					push(&tasks[i])
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e, _ := q.Pop()
					e.V.prio = ks.next(r, e.V.prio)
					push(e.V)
				}
			})
		}
	}

	const laneDepth = 32
	type envelope struct {
		due      int64
		id, prio int32
		tenant   uint8
		fin      *task
	}
	b.Run("binheap-less/lane32", func(b *testing.B) {
		q := pq.NewBinHeap(func(x, y envelope) bool { return x.prio < y.prio })
		r := xrand.New(1)
		for i := 0; i < laneDepth; i++ {
			q.Push(envelope{prio: int32(r.Intn(1 << 20))})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, _ := q.Pop()
			v.prio = int32(r.Intn(1 << 20))
			q.Push(v)
		}
	})
	b.Run("keyheap/lane32", func(b *testing.B) {
		q := pq.NewKeyHeap[envelope]()
		r := xrand.New(1)
		for i := 0; i < laneDepth; i++ {
			k := r.Intn(1 << 20)
			q.Push(pq.Keyed[envelope]{Key: int64(k), V: envelope{prio: int32(k)}})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, _ := q.Pop()
			e.V.prio = int32(r.Intn(1 << 20))
			e.Key = int64(e.V.prio)
			q.Push(e)
		}
	})
}

// BenchmarkSpawnAccounting prices the scheduler's own cost per task —
// spawn, push, pop, execute and the task accounting around them — with
// nothing else in the way: a binary spawn tree of empty tasks on two
// places (2^17 − 1 tasks per Run).
func BenchmarkSpawnAccounting(b *testing.B) {
	const depth = 16
	s, err := sched.New(sched.Config[int64]{
		Places:   2,
		Strategy: sched.Hybrid,
		K:        512,
		Less:     func(x, y int64) bool { return x > y },
		Priority: func(v int64) int64 { return -v },
		Execute: func(ctx *sched.Ctx[int64], v int64) {
			if v > 0 {
				ctx.Spawn(v - 1)
				ctx.Spawn(v - 1)
			}
		},
		Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var tasks int64
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := s.Run(depth)
		if err != nil {
			b.Fatal(err)
		}
		tasks += st.Executed
		elapsed += st.Elapsed
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(tasks), "ns/task")
}

// BenchmarkExtensionStructural compares the §5.3 structural queue against
// the paper's hybrid structure on the same workload (EXT-STRUCT).
func BenchmarkExtensionStructural(b *testing.B) {
	common := benchCommon()
	g := repro.ErdosRenyi(common.N, common.EdgeP, common.Seed)
	for _, strat := range []repro.Strategy{repro.Hybrid, repro.Relaxed} {
		b.Run(strat.String(), func(b *testing.B) {
			sv, err := sssp.NewSolver(g.N, sssp.Options{
				Places: 8, Strategy: strat, K: 512, Seed: common.Seed,
			})
			if err != nil {
				b.Fatal(err)
			}
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sv.Solve(g.Graph, 0)
				if err != nil {
					b.Fatal(err)
				}
				total += res.NodesRelaxed
			}
			b.ReportMetric(float64(total)/float64(b.N), "nodes_relaxed")
		})
	}
}

// BenchmarkGlobalHeapBaseline measures the single shared priority queue
// the paper argues against (GLOBAL-PQ): strict ordering, zero scaling.
func BenchmarkGlobalHeapBaseline(b *testing.B) {
	common := benchCommon()
	g := repro.ErdosRenyi(common.N, common.EdgeP, common.Seed)
	for _, places := range []int{1, 8} {
		b.Run(fmt.Sprintf("P=%d", places), func(b *testing.B) {
			sv, err := sssp.NewSolver(g.N, sssp.Options{
				Places: places, Strategy: repro.GlobalHeap, K: 512, Seed: common.Seed,
			})
			if err != nil {
				b.Fatal(err)
			}
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sv.Solve(g.Graph, 0)
				if err != nil {
					b.Fatal(err)
				}
				total += res.NodesRelaxed
			}
			b.ReportMetric(float64(total)/float64(b.N), "nodes_relaxed")
		})
	}
}

// BenchmarkGranularity reproduces §5.5's granularity observation (GRAN):
// hybrid versus work-stealing at two task grain sizes.
func BenchmarkGranularity(b *testing.B) {
	common := benchCommon()
	g := repro.ErdosRenyi(common.N, common.EdgeP, common.Seed)
	for _, spin := range []int{0, 256} {
		for _, strat := range []repro.Strategy{repro.WorkStealing, repro.Hybrid} {
			b.Run(fmt.Sprintf("spin=%d/%s", spin, strat), func(b *testing.B) {
				sv, err := sssp.NewSolver(g.N, sssp.Options{
					Places: 8, Strategy: strat, K: 512,
					Seed: common.Seed, SpinWork: spin,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sv.Solve(g.Graph, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMultiObjective measures the §6 extension: parallel Pareto
// shortest path search vs the sequential Martins oracle (EXT-MOSP).
func BenchmarkMultiObjective(b *testing.B) {
	bg := repro.RandomBiGraph(300, 0.1, 7)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			repro.MultiObjectiveSequential(bg, 0)
		}
	})
	for _, strat := range []repro.Strategy{repro.WorkStealing, repro.Hybrid} {
		b.Run(strat.String(), func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				res, err := repro.SolveMultiObjective(bg, 0, repro.MultiObjectiveOptions{
					Places: 8, Strategy: strat, K: 64, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				total += res.LabelsProcessed
			}
			b.ReportMetric(float64(total)/float64(b.N), "labels_processed")
		})
	}
}

// BenchmarkDSThroughput measures raw push/pop throughput of each data
// structure under balanced producer/consumer load (micro-benchmark, not a
// paper figure).
func BenchmarkDSThroughput(b *testing.B) {
	mk := map[string]func() (repro.PriorityDS[int64], error){
		"work-stealing": func() (repro.PriorityDS[int64], error) {
			return repro.NewWorkStealingDS(dsCfg())
		},
		"centralized": func() (repro.PriorityDS[int64], error) {
			return repro.NewCentralizedDS(dsCfg())
		},
		"hybrid": func() (repro.PriorityDS[int64], error) {
			return repro.NewHybridDS(dsCfg())
		},
		"relaxed": func() (repro.PriorityDS[int64], error) {
			return repro.NewRelaxedDS(dsCfg())
		},
	}
	for name, f := range mk {
		b.Run(name, func(b *testing.B) {
			d, err := f()
			if err != nil {
				b.Fatal(err)
			}
			// Place ids must be goroutine-unique. RunParallel spawns
			// exactly GOMAXPROCS goroutines (parallelism 1), and the
			// structure was built with GOMAXPROCS places, so a counter
			// reset per invocation hands each goroutine its own place.
			var placeCounter atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				pl := int(placeCounter.Add(1)-1) % dsPlaces()
				i := int64(0)
				for pb.Next() {
					if i%2 == 0 {
						d.Push(pl, 512, i)
					} else {
						d.Pop(pl)
					}
					i++
				}
			})
		})
	}
}

func dsPlaces() int { return runtime.GOMAXPROCS(0) }

func dsCfg() repro.DSConfig[int64] {
	return repro.DSConfig[int64]{
		Places: dsPlaces(),
		Less:   func(a, b int64) bool { return a < b },
		Seed:   1,
	}
}

// BenchmarkServeMode measures the open-system serving path (SERVE):
// b.N prioritized tasks submitted from GOMAXPROCS concurrent producers
// into a serving scheduler, including the final drain — the end-to-end
// cost of Submit → DS → worker execution, per task, for each headline
// strategy.
func BenchmarkServeMode(b *testing.B) {
	strategies := []repro.Strategy{
		repro.WorkStealing, repro.Centralized, repro.Hybrid,
		repro.GlobalHeap, repro.Relaxed, repro.RelaxedSampleTwo,
	}
	for _, strat := range strategies {
		b.Run(strat.String(), func(b *testing.B) {
			var executed atomic.Int64
			s, err := repro.NewScheduler(repro.SchedulerConfig[int64]{
				Places:    dsPlaces(),
				Strategy:  strat,
				K:         512,
				Injectors: dsPlaces(),
				Less:      func(a, x int64) bool { return a < x },
				Execute:   func(ctx repro.Ctx[int64], v int64) { executed.Add(1) },
				Seed:      1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Start(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var seq atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					v := seq.Add(1)
					if err := s.Submit(v % 4096); err != nil {
						b.Error(err)
						return
					}
				}
			})
			if err := s.Drain(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if _, err := s.Stop(); err != nil {
				b.Fatal(err)
			}
			if executed.Load() != int64(b.N) {
				b.Fatalf("executed %d of %d", executed.Load(), b.N)
			}
		})
	}
}

// BenchmarkServeSticky quantifies the sticky, batched MultiQueue hot
// path (SERVE): closed-loop saturation traffic from 8 producers through
// the relaxed strategies, unsticky/unbatched versus stickiness 4 with
// batch 8. Reported metrics: sustained throughput (tasks/s), the p99
// sampled pop rank error (rank_p99) — the two sides of the trade-off,
// so a throughput win that silently wrecks ordering quality is visible
// in the same row — and the measured per-task allocation cost
// (allocs/op, B/op: process-wide MemStats deltas over the serve window
// divided by executed tasks;
// these override the -benchmem columns, whose per-b.N accounting would
// smear one whole serve run across its task count). The CI bench job
// gates the relaxed rows of this benchmark, allocation columns
// included, against the main-branch baseline.
func BenchmarkServeSticky(b *testing.B) {
	configs := []struct {
		name         string
		strat        repro.Strategy
		stick, batch int
	}{
		{"relaxed-two/baseline", repro.RelaxedSampleTwo, 1, 1},
		{"relaxed-two/sticky4-batch8", repro.RelaxedSampleTwo, 4, 8},
		{"relaxed/baseline", repro.Relaxed, 1, 1},
		{"relaxed/sticky4-batch8", repro.Relaxed, 4, 8},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			var thr, rank, allocs, bytes float64
			for i := 0; i < b.N; i++ {
				res, err := load.Run(load.Config{
					Sched: sched.Config[load.Task]{
						Places:     runtime.GOMAXPROCS(0),
						K:          512,
						Strategy:   sched.Strategy(cfg.strat),
						Batch:      cfg.batch,
						Stickiness: cfg.stick,
						Seed:       uint64(i) + 1,
					},
					Producers:  8,
					Duration:   250 * time.Millisecond,
					Arrival:    load.ClosedLoop,
					Window:     64,
					RankSample: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				thr += res.ThroughputPerSec
				rank += res.RankErr.P99
				allocs += res.AllocsPerTask
				bytes += res.BytesPerTask
			}
			b.ReportMetric(thr/float64(b.N), "tasks/s")
			b.ReportMetric(rank/float64(b.N), "rank_p99")
			b.ReportMetric(allocs/float64(b.N), "allocs/op")
			b.ReportMetric(bytes/float64(b.N), "B/op")
		})
	}
}

// BenchmarkServeAdaptive pits the runtime S/B controller against the
// hand-tuned fixed setting on the sticky benchmark workload (SERVE):
// the same closed-loop saturation traffic as BenchmarkServeSticky, once
// with the knobs pinned at the tuned (S=4, B=8), once with the
// controller starting from the unsticky seeds under a rank-error budget
// matching what the fixed setting measures (~512 at this scale). The
// acceptance bar is the adaptive row's tasks/s within 10% of the fixed
// row while rank_p99 stays under the budget — adaptivity should cost
// almost nothing at steady state and is what reacts when the workload
// shifts. final_S/final_B metrics show where the controller landed.
func BenchmarkServeAdaptive(b *testing.B) {
	base := load.Config{
		Sched: sched.Config[load.Task]{
			Places:   runtime.GOMAXPROCS(0),
			K:        512,
			Strategy: sched.Strategy(repro.RelaxedSampleTwo),
		},
		Producers:  8,
		Duration:   250 * time.Millisecond,
		Arrival:    load.ClosedLoop,
		Window:     64,
		RankSample: 4,
	}
	b.Run("relaxed-two/fixed-s4-b8", func(b *testing.B) {
		var thr, rank float64
		for i := 0; i < b.N; i++ {
			cfg := base
			cfg.Sched.Batch, cfg.Sched.Stickiness, cfg.Sched.Seed = 8, 4, uint64(i)+1
			res, err := load.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			thr += res.ThroughputPerSec
			rank += res.RankErr.P99
		}
		b.ReportMetric(thr/float64(b.N), "tasks/s")
		b.ReportMetric(rank/float64(b.N), "rank_p99")
	})
	b.Run("relaxed-two/adaptive", func(b *testing.B) {
		var thr, rank, stick, batch float64
		for i := 0; i < b.N; i++ {
			cfg := base
			// The controller owns the lane stickiness and the worker pop
			// batch; the producers' submit batch is not a controller knob,
			// so both rows use the same submit batching and the comparison
			// isolates what adaptation actually controls.
			cfg.Sched.Batch = 8
			cfg.Sched.Adaptive = true
			cfg.Sched.RankErrorBudget = 512
			cfg.Sched.AdaptInterval = 5 * time.Millisecond
			cfg.Sched.Seed = uint64(i) + 1
			res, err := load.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			thr += res.ThroughputPerSec
			rank += res.RankErr.P99
			stick += float64(res.FinalStickiness)
			batch += float64(res.FinalBatch)
		}
		b.ReportMetric(thr/float64(b.N), "tasks/s")
		b.ReportMetric(rank/float64(b.N), "rank_p99")
		b.ReportMetric(stick/float64(b.N), "final_S")
		b.ReportMetric(batch/float64(b.N), "final_B")
	})
}

// BenchmarkServeObserved prices the observability layer on the tuned
// sticky hot path (SERVE): the BenchmarkServeSticky closed-loop
// saturation workload, once bare, once publishing the full metrics
// series into an obs.Registry, once additionally capturing every
// arrival envelope and controller decision to a discarded JSONL
// stream. All publication happens in the controller goroutine at
// window boundaries and capture is a lock-free ring write on submit,
// so the acceptance bar is identical allocs/op and B/op across the
// three rows — the allocation columns are the measured per-task
// figures (see BenchmarkServeSticky), and the CI bench job gates them
// against the main-branch baseline (BENCH_observed.json).
func BenchmarkServeObserved(b *testing.B) {
	base := load.Config{
		Sched: sched.Config[load.Task]{
			Places:     runtime.GOMAXPROCS(0),
			K:          512,
			Strategy:   sched.Strategy(repro.RelaxedSampleTwo),
			Batch:      8,
			Stickiness: 4,
		},
		Producers:  8,
		Duration:   250 * time.Millisecond,
		Arrival:    load.ClosedLoop,
		Window:     64,
		RankSample: 4,
	}
	rows := []struct {
		name    string
		metrics bool
		capture bool
	}{
		{"relaxed-two/bare", false, false},
		{"relaxed-two/metrics", true, false},
		{"relaxed-two/metrics-capture", true, true},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			var thr, rank, allocs, bytes float64
			for i := 0; i < b.N; i++ {
				cfg := base
				cfg.Sched.Seed = uint64(i) + 1
				if row.metrics {
					cfg.Sched.Metrics = obs.NewRegistry()
				}
				if row.capture {
					cfg.Sched.Recorder = obs.NewRecorder(io.Discard)
				}
				res, err := load.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if cfg.Sched.Recorder != nil {
					if err := cfg.Sched.Recorder.Err(); err != nil {
						b.Fatal(err)
					}
				}
				thr += res.ThroughputPerSec
				rank += res.RankErr.P99
				allocs += res.AllocsPerTask
				bytes += res.BytesPerTask
			}
			b.ReportMetric(thr/float64(b.N), "tasks/s")
			b.ReportMetric(rank/float64(b.N), "rank_p99")
			b.ReportMetric(allocs/float64(b.N), "allocs/op")
			b.ReportMetric(bytes/float64(b.N), "B/op")
		})
	}
}

// BenchmarkServeOpenLoop runs the full load-generator pipeline (SERVE):
// Poisson arrivals, latency histogram and rank-error tracking — and
// reports the achieved throughput and sojourn percentiles as metrics.
// One generator run per benchmark iteration.
func BenchmarkServeOpenLoop(b *testing.B) {
	for _, strat := range []repro.Strategy{repro.Hybrid, repro.Relaxed} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := load.Run(load.Config{
					Sched: sched.Config[load.Task]{
						Places:   runtime.GOMAXPROCS(0),
						K:        512,
						Strategy: sched.Strategy(strat),
						Seed:     uint64(i),
					},
					Producers: 2,
					Duration:  200 * time.Millisecond,
					Arrival:   load.Poisson,
					Rate:      50000,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.ThroughputPerSec, "tasks/s")
					b.ReportMetric(res.SojournNs.P50, "p50ns")
					b.ReportMetric(res.SojournNs.P99, "p99ns")
					b.ReportMetric(res.RankErrMean, "rankerr")
				}
			}
		})
	}
}
