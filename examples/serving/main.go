// Serving: the open-system mode. Instead of seeding a computation and
// draining it to quiescence (Run), the scheduler is started as a
// long-running service and external producer goroutines stream
// prioritized requests into it — the regime a production task scheduler
// actually operates in, and the one where the relaxation trade-off shows
// up as tail latency.
//
// The walkthrough: Start a scheduler, submit Poisson traffic from a few
// producers for a while, Drain, Stop, and report sojourn-latency
// percentiles per strategy. For a heavier-duty version of this loop —
// arrival processes, priority distributions, rank-error tracking — see
// cmd/loadgen and internal/load.
//
// Run with:
//
//	go run ./examples/serving [-rate 20000] [-producers 4] [-duration 1s]
//	                          [-batch 1] [-stickiness 0] [-adaptive]
//	                          [-backpressure] [-spin 0]
//	                          [-metrics :9090] [-strategy relaxed]
//
// -batch > 1 makes producers submit groups of requests through
// SubmitAll (one injector episode per group) and workers pop groups per
// lock episode; -stickiness S makes the relaxed strategies reuse a lane
// for S consecutive operations. Both trade priority adherence for
// throughput — compare the relaxed rows as the knobs change.
//
// -adaptive hands both knobs to the runtime controller instead: the
// flags become seeds, and each row reports where the controller drove
// S and B for that strategy's traffic (the relaxed rows move the lane
// stickiness; every strategy's pop batch adapts).
//
// -backpressure puts the admission controller in front of the
// scheduler: overloaded strategies shed their lowest-priority requests
// (repro.ErrShed) instead of letting every request's latency grow
// without bound, and requests in the most urgent eighth of the priority
// range are never shed. Combine with -spin (per-request busy work) and
// a -rate past the machine's capacity to see the rows diverge: shed
// rate up, served latency flat.
//
// -metrics ADDR switches to the observability walkthrough: a single
// strategy (-strategy, default relaxed) serves the same traffic with a
// metrics registry attached, and ADDR serves the scheduler's series in
// Prometheus text format on /metrics and as JSON on /metrics.json —
// the scheduler's own counters and controller states, plus three
// application-level series this example registers itself: a sojourn
// histogram, a rank-error tracker (wired into RankSignal), and a
// whole-process allocs-per-request gauge. After the traffic window the
// process keeps serving scrapes until interrupted, so the sealed final
// values can be read at leisure. docs/METRICS.md documents every
// series.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
)

// request is what a serving workload submits: a priority and the
// submission timestamp the latency measurement needs.
type request struct {
	prio int64
	enq  time.Duration // since process epoch
}

// The producers draw priorities from [0, 2^20); under -backpressure
// the most urgent eighth of that range is protected from shedding.
const maxPrio = 1<<20 - 1

// flags groups the command line; one instance is shared by both modes.
type flags struct {
	rate       float64
	producers  int
	places     int
	duration   time.Duration
	batch      int
	stickiness int
	adaptive   bool
	backpress  bool
	spin       int
	metrics    string
	strategy   string
}

// strategies is the comparison set the default mode walks.
var strategies = []repro.Strategy{
	repro.WorkStealing, repro.Centralized, repro.Hybrid,
	repro.GlobalHeap, repro.Relaxed, repro.RelaxedSampleTwo,
}

func main() {
	var f flags
	flag.Float64Var(&f.rate, "rate", 20000, "aggregate arrival rate, requests/s")
	flag.IntVar(&f.producers, "producers", 4, "producer goroutines")
	flag.IntVar(&f.places, "places", 4, "worker places")
	flag.DurationVar(&f.duration, "duration", time.Second, "traffic duration")
	flag.IntVar(&f.batch, "batch", 1, "submit/pop batch size (1 = unbatched)")
	flag.IntVar(&f.stickiness, "stickiness", 0, "relaxed lane stickiness S (0 = unsticky)")
	flag.BoolVar(&f.adaptive, "adaptive", false, "auto-tune S and the pop batch at runtime (flags become seeds)")
	flag.BoolVar(&f.backpress, "backpressure", false, "shed low-priority requests under overload")
	flag.IntVar(&f.spin, "spin", 0, "per-request busy-work iterations (use with -backpressure to overload)")
	flag.StringVar(&f.metrics, "metrics", "", "serve Prometheus metrics on this address (single-strategy mode)")
	flag.StringVar(&f.strategy, "strategy", "relaxed", fmt.Sprintf("strategy for the -metrics mode, one of %v", repro.Strategies()))
	flag.Parse()

	if f.metrics != "" {
		serveObserved(f)
		return
	}

	epoch := time.Now()
	for _, strategy := range strategies {
		runComparisonRow(f, strategy, epoch)
	}
}

// buildConfig assembles the SchedulerConfig both modes share. Priority
// is always set: it doubles as the relaxed strategies' numeric
// projection, which keeps the lane-minimum advertisement (and with it
// the serve path) allocation-free.
func buildConfig(f flags, strategy repro.Strategy, execute func(ctx repro.Ctx[request], r request)) repro.SchedulerConfig[request] {
	cfg := repro.SchedulerConfig[request]{
		Places:     f.places,
		Strategy:   strategy,
		K:          512,
		Injectors:  f.producers,
		Batch:      f.batch,
		Stickiness: f.stickiness,
		Adaptive:   f.adaptive,
		Less:       func(a, b request) bool { return a.prio < b.prio },
		Priority:   func(r request) int64 { return r.prio },
		MaxPrio:    maxPrio,
		Execute:    execute,
		Seed:       1,
	}
	if f.backpress {
		cfg.Backpressure = true
		cfg.ProtectedBand = (maxPrio + 1) / 8
		cfg.SojournBudget = 20 * time.Millisecond
	}
	return cfg
}

// spinWork is the optional per-request busy loop; the returned value
// keeps the compiler from discarding it.
func spinWork(prio int64, n int) uint64 {
	v := uint64(prio)
	for i := 0; i < n; i++ {
		v = v*6364136223846793005 + 1442695040888963407
	}
	return v
}

// producePoisson streams one producer's Poisson arrivals until the
// deadline, buffering -batch requests per submit call. The buffering
// delay is part of the measured sojourn time.
func producePoisson(epoch time.Time, seed uint64, perProducer float64, duration time.Duration, batch int, submit func([]request)) {
	next := time.Since(epoch)
	deadline := next + duration
	rng := seed*0x9e3779b97f4a7c15 + 1
	buf := make([]request, 0, batch)
	flush := func() {
		if len(buf) > 0 {
			submit(buf)
			buf = buf[:0]
		}
	}
	defer flush()
	for {
		// Exponential inter-arrival via a tiny inline LCG.
		rng = rng*6364136223846793005 + 1442695040888963407
		u := float64(rng>>11)/(1<<53) + 1e-18
		next += time.Duration(-math.Log(u) / perProducer * 1e9)
		if next >= deadline {
			return
		}
		// Sleep off the bulk of the wait, yield the rest: busy-waiting
		// here would starve the workers on small machines.
		for {
			ahead := next - time.Since(epoch)
			if ahead <= 0 {
				break
			}
			if ahead > 200*time.Microsecond {
				time.Sleep(ahead - 100*time.Microsecond)
			} else {
				runtime.Gosched()
			}
		}
		buf = append(buf, request{prio: int64(rng >> 44), enq: time.Since(epoch)})
		if len(buf) >= batch {
			flush()
		}
	}
}

// runComparisonRow runs one strategy of the default comparison mode and
// prints its row.
func runComparisonRow(f flags, strategy repro.Strategy, epoch time.Time) {
	// One latency histogram per place: Execute runs on worker places
	// only, so each histogram stays single-writer.
	hists := make([]*repro.Histogram, f.places)
	for i := range hists {
		hists[i] = repro.NewHistogram()
	}
	var sink atomic.Uint64
	cfg := buildConfig(f, strategy, func(ctx repro.Ctx[request], r request) {
		if f.spin > 0 {
			sink.Store(spinWork(r.prio, f.spin))
		}
		hists[ctx.Place()].Observe(float64(time.Since(epoch) - r.enq))
	})
	s, err := repro.NewScheduler(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Open the doors and stream Poisson traffic from the producers.
	if err := s.Start(); err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < f.producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			producePoisson(epoch, uint64(p), f.rate/float64(f.producers), f.duration, f.batch, func(buf []request) {
				// Under -backpressure a batch may be partially shed; the
				// session stats report the total at the end.
				if err := s.SubmitAll(buf); err != nil && !errors.Is(err, repro.ErrShed) {
					log.Fatal(err)
				}
			})
		}(p)
	}
	wg.Wait()

	// Everything accepted must finish before the numbers are read.
	if err := s.Drain(); err != nil {
		log.Fatal(err)
	}
	st, err := s.Stop()
	if err != nil {
		log.Fatal(err)
	}

	merged := repro.NewHistogram()
	for _, h := range hists {
		merged.Merge(h)
	}
	sum := merged.Summarize()
	adapted := ""
	if stick, b, ok := s.AdaptiveState(); ok {
		adapted = fmt.Sprintf("   adapted S=%d B=%d", stick, b)
	}
	if f.backpress {
		adapted += fmt.Sprintf("   shed %d deferred %d", st.DS.Shed, st.DS.Deferred)
	}
	fmt.Printf("%-14s served %6d requests in %7.1f ms   sojourn p50 %7.1fus  p95 %7.1fus  p99 %7.1fus%s\n",
		strategy, st.Executed, st.Elapsed.Seconds()*1e3,
		sum.P50/1e3, sum.P95/1e3, sum.P99/1e3, adapted)
}

// serveObserved is the -metrics mode: one strategy, one traffic window,
// a full observability surface over HTTP, and a process that lingers
// for scrapes after the window is sealed.
func serveObserved(f flags) {
	strategy, err := repro.ParseStrategy(f.strategy)
	if err != nil {
		log.Fatalf("-strategy: %v", err)
	}

	reg := repro.NewMetrics()
	// Application-level series, registered next to the scheduler's own.
	// The registry's histograms are log-bucketed over [1, ~1.6e13] —
	// sized for nanosecond latencies — so sojourn is observed in ns.
	sojourn := reg.Histogram(repro.MetricDesc{
		Name: "serving_sojourn_ns",
		Help: "submit-to-execute latency observed by the example's Execute callback",
		Unit: "nanoseconds",
	})
	tracker, err := repro.NewRankTracker(maxPrio+1, 4)
	if err != nil {
		log.Fatal(err)
	}
	var executed atomic.Int64
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	reg.GaugeFunc(repro.MetricDesc{
		Name: "serving_allocs_per_request",
		Help: "whole-process heap allocations divided by executed requests (includes producers and HTTP scrapes; the scheduler's own serve path adds none)",
	}, func() float64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if e := executed.Load(); e > 0 {
			return float64(m.Mallocs-m0.Mallocs) / float64(e)
		}
		return 0
	})

	epoch := time.Now()
	var sink atomic.Uint64
	cfg := buildConfig(f, strategy, func(ctx repro.Ctx[request], r request) {
		if f.spin > 0 {
			sink.Store(spinWork(r.prio, f.spin))
		}
		executed.Add(1)
		tracker.Executed(r.prio)
		sojourn.Observe(float64(time.Since(epoch) - r.enq))
	})
	cfg.Metrics = reg
	cfg.RankSignal = tracker.Signal()
	s, err := repro.NewScheduler(cfg)
	if err != nil {
		log.Fatal(err)
	}

	mux := http.NewServeMux()
	mux.Handle("/metrics", repro.MetricsHandler(reg))
	mux.Handle("/metrics.json", repro.MetricsJSONHandler(reg))
	srv := &http.Server{Addr: f.metrics, Handler: mux}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()
	log.Printf("serving metrics on http://%s/metrics (and /metrics.json)", f.metrics)

	if err := s.Start(); err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	outcomes := make([][]repro.Outcome, f.producers)
	for p := 0; p < f.producers; p++ {
		wg.Add(1)
		outcomes[p] = make([]repro.Outcome, f.batch)
		go func(p int) {
			defer wg.Done()
			out := outcomes[p]
			producePoisson(epoch, uint64(p), f.rate/float64(f.producers), f.duration, f.batch, func(buf []request) {
				// The tracker's live set must mirror the scheduler's: count
				// every request in, then retract exactly the shed ones.
				for _, r := range buf {
					tracker.Submitted(r.prio)
				}
				if _, err := s.SubmitAllOutcomes(buf, out[:len(buf)]); err != nil {
					if !errors.Is(err, repro.ErrShed) {
						log.Fatal(err)
					}
					for i, o := range out[:len(buf)] {
						if o == repro.Shed {
							tracker.Retract(buf[i].prio)
						}
					}
				}
			})
		}(p)
	}
	wg.Wait()

	if err := s.Drain(); err != nil {
		log.Fatal(err)
	}
	st, err := s.Stop()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s served %d requests in %.1f ms; final series sealed — scrape away, Ctrl-C to exit",
		strategy, st.Executed, st.Elapsed.Seconds()*1e3)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
}
