// Command loadgen drives the open-system serving mode: a streaming load
// generator submits prioritized tasks into a serving scheduler following
// a configurable arrival process, and the run reports sojourn-latency
// percentiles (p50/p95/p99) and pop rank error per configuration — the
// throughput-versus-ordering-quality trade-off the relaxed structures
// are built around.
//
// The sweep is the cross product of strategies × producer counts ×
// arrival rates; results are emitted as a JSON array on stdout with a
// human-readable summary table on stderr.
//
// Usage:
//
//	loadgen [-strategy all] [-rate 100000] [-producers 4] [-duration 2s]
//	        [-places N] [-k 512] [-arrival poisson|bursty|closed-loop]
//	        [-dist uniform|skewed|ramp] [-window 64] [-on 10ms] [-off 10ms]
//	        [-spin 0] [-ranksample 1] [-batch 1] [-stickiness 0]
//	        [-adaptive] [-rankbudget 0] [-adaptinterval 10ms]
//	        [-backpressure] [-sojournbudget 50ms] [-protectedband 0]
//	        [-spillcap 0] [-tenants W,W,...] [-tenantskew 1]
//	        [-tenantfloor 0] [-tenantbudgets D,D,...] [-scenario steady]
//	        [-capture FILE] [-seed 20140215]
//
// The scheduler flags fill load.Config.Sched, a sched.Config handed to
// sched.New as written, so they mean what the library means: -k is the
// k-priority strategies' relaxation parameter and -k 0 is strict k = 0;
// a negative k is refused. -places 0 is resolved to GOMAXPROCS here.
// -arrival, -dist and -scenario take the names of load's name tables
// (-h lists them). Sojourn latency of an open-loop arrival (poisson,
// bursty) is measured from the instant it was due, so a late producer's
// delay is in the percentiles; closed-loop arrivals are stamped with the
// clock.
//
// -strategy, -rate, -producers, -batch and -stickiness accept
// comma-separated lists; -strategy takes the names sched.ParseStrategy
// accepts (-h lists them), and "-strategy all" expands to the six
// headline strategies (work-stealing, centralized, hybrid, global-heap,
// relaxed, relaxed-two). -batch sets both the producers' submit batch
// and the workers' pop batch; -stickiness sets the relaxed strategies'
// lane stickiness S — together they sweep the MultiQueue throughput vs.
// rank-error trade-off.
//
// -adaptive hands both knobs to the runtime controller instead
// (internal/adapt): -stickiness and -batch become seeds, -rankbudget is
// the p99 rank-error budget the controller must hold (0 = none), and
// each JSON result carries the final S/B plus the full per-window trace
// (adapt_trace) of the controller's trajectory through the run's load
// phases.
//
// -backpressure puts the admission controller in front of the
// scheduler (internal/backpressure): under overload the lowest-priority
// submissions are deferred or shed while priorities below
// -protectedband (default: an eighth of the priority range) are never
// gated. Each JSON result then carries the shed rate, per-band
// admission and goodput (bands), the final threshold, and the
// controller's trace (bp_trace); -rankbudget additionally wires the
// rank-error estimate as a second overload signal.
//
// -tenants enables multi-tenant fair scheduling (requires
// -backpressure): its comma list is the per-tenant fair-share weight
// vector, producers stamp every task with a tenant id drawn from a
// -tenantskew-weighted distribution (tenant 0 arrives skew× as often
// as each other tenant), and each JSON result carries per-tenant
// admission/goodput/sojourn reports (tenants), the fairness
// controller's window trace (fair_trace) and the gated-window count.
// -tenantfloor sets the guaranteed-floor capacity fraction and
// -tenantbudgets per-tenant sojourn budgets (SLO bands). -scenario
// layers a scripted traffic pattern on top: "diurnal" ramps the
// arrival rate through a day-shaped profile, "inflation" has the hot
// tenant claim top priorities from the run's midpoint — the
// adversarial pattern the per-tenant quotas must absorb.
//
// -capture writes the run's arrival envelopes and every controller
// decision to FILE as versioned JSONL (the schema is documented in
// docs/METRICS.md). The file replays offline with cmd/replay, which
// re-runs the recorded controllers and verifies the decision traces
// bit-identically. Captures are single-session: -capture refuses
// multi-configuration sweeps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stats"
)

// allStrategies is the headline six: the paper's three, the strict
// global heap baseline, and the two structural extensions (exhaustive
// and two-choice sampling).
var allStrategies = []sched.Strategy{
	sched.WorkStealing, sched.Centralized, sched.Hybrid,
	sched.GlobalHeap, sched.Relaxed, sched.RelaxedSampleTwo,
}

func parseStrategies(s string) ([]sched.Strategy, error) {
	if strings.TrimSpace(s) == "all" {
		return allStrategies, nil
	}
	return sched.ParseStrategies(s)
}

// sticksFor is the stickiness values the sweep runs strat at. Only the
// relaxed strategies consume the knob; for the others a stickiness
// sweep would re-run bit-identical configurations and emit rows that
// look like a measured tradeoff where none exists, so they run at the
// first value only.
func sticksFor(strat sched.Strategy, stickList []int) []int {
	if strat != sched.Relaxed && strat != sched.RelaxedSampleTwo {
		return stickList[:1]
	}
	return stickList
}

// sweepRuns is the number of configurations the sweep runs: perStrategy
// (producers × rates × batches) times each strategy's stickiness values.
func sweepRuns(stratList []sched.Strategy, perStrategy int, stickList []int) int {
	runs := 0
	for _, strat := range stratList {
		runs += perStrategy * len(sticksFor(strat, stickList))
	}
	return runs
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
func parseInt64(s string) (int64, error)   { return strconv.ParseInt(s, 10, 64) }

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		strategy   = flag.String("strategy", "all", fmt.Sprintf("strategies to sweep: \"all\" (the headline six) or a comma list of %v", sched.Strategies()))
		rates      = flag.String("rate", "100000", "aggregate arrival rates in tasks/s (comma list)")
		producers  = flag.String("producers", "4", "producer goroutine counts (comma list)")
		duration   = flag.Duration("duration", 2*time.Second, "traffic duration per configuration")
		places     = flag.Int("places", 0, "worker places (0 = GOMAXPROCS)")
		k          = flag.Int("k", 512, "relaxation parameter (0 = strict)")
		arrival    = flag.String("arrival", "poisson", fmt.Sprintf("arrival process, one of %v", load.ArrivalNames()))
		dist       = flag.String("dist", "uniform", fmt.Sprintf("priority distribution, one of %v", load.DistNames()))
		window     = flag.Int("window", 64, "closed-loop outstanding tasks per producer")
		onPeriod   = flag.Duration("on", 10*time.Millisecond, "bursty on-period")
		offPeriod  = flag.Duration("off", 10*time.Millisecond, "bursty off-period")
		spin       = flag.Int("spin", 0, "synthetic work iterations per task")
		rankSample = flag.Int("ranksample", 1, "measure rank error on every Nth task")
		batches    = flag.String("batch", "1", "operation batch sizes: producer submit + worker pop batch (comma list)")
		stickiness = flag.String("stickiness", "0", "relaxed lane stickiness S values, 0 = unsticky (comma list)")
		adaptive   = flag.Bool("adaptive", false, "let the runtime controller tune S and the pop batch (batch/stickiness become seeds)")
		rankBudget = flag.Float64("rankbudget", 0, "p99 rank-error budget for the runtime controllers (0 = none)")
		adaptEvery = flag.Duration("adaptinterval", 0, "runtime controllers' window (0 = default)")
		backpress  = flag.Bool("backpressure", false, "shed/defer low-priority submits under overload (admission controller)")
		sojournBud = flag.Duration("sojournbudget", 0, "backpressure: target sojourn time (0 = 50ms default)")
		protBand   = flag.Int64("protectedband", 0, "backpressure: never-shed priority band [0, N) (0 = range/8)")
		spillCap   = flag.Int("spillcap", 0, "backpressure: deferral spillway capacity (0 = default)")
		tenants    = flag.String("tenants", "", "multi-tenant fair scheduling: per-tenant weight vector (comma list; requires -backpressure)")
		tenSkew    = flag.Float64("tenantskew", 1, "hot-tenant arrival multiplier: tenant 0 arrives N× as often as each other tenant")
		tenFloor   = flag.Float64("tenantfloor", 0, "guaranteed-floor capacity fraction (0 = 5% default)")
		tenBudgets = flag.String("tenantbudgets", "", "per-tenant sojourn budgets / SLO bands (comma duration list; missing or 0 entries inherit -sojournbudget)")
		scenario   = flag.String("scenario", "steady", fmt.Sprintf("scripted traffic pattern, one of %v", load.ScenarioNames()))
		capture    = flag.String("capture", "", "write a JSONL capture (arrivals + controller decisions) to this file; single-configuration sweeps only, replay with cmd/replay")
		seed       = flag.Uint64("seed", 20140215, "base random seed")
	)
	flag.Parse()
	if *places == 0 {
		*places = runtime.GOMAXPROCS(0)
	}

	stratList, err := parseStrategies(*strategy)
	if err != nil {
		log.Fatal(err)
	}
	rateList, err := harness.ParseList(*rates, parseFloat)
	if err != nil {
		log.Fatalf("bad -rate: %v", err)
	}
	prodList, err := harness.ParseList(*producers, strconv.Atoi)
	if err != nil {
		log.Fatalf("bad -producers: %v", err)
	}
	arr, err := load.ParseArrival(*arrival)
	if err != nil {
		log.Fatal(err)
	}
	pd, err := load.ParseDist(*dist)
	if err != nil {
		log.Fatal(err)
	}

	batchList, err := harness.ParseList(*batches, strconv.Atoi)
	if err != nil {
		log.Fatalf("bad -batch: %v", err)
	}
	stickList, err := harness.ParseList(*stickiness, strconv.Atoi)
	if err != nil {
		log.Fatalf("bad -stickiness: %v", err)
	}
	var tenWeights []int64
	if *tenants != "" {
		if tenWeights, err = harness.ParseList(*tenants, parseInt64); err != nil {
			log.Fatalf("bad -tenants: %v", err)
		}
	}
	var tenBudgetList []time.Duration
	if *tenBudgets != "" {
		if tenBudgetList, err = harness.ParseList(*tenBudgets, time.ParseDuration); err != nil {
			log.Fatalf("bad -tenantbudgets: %v", err)
		}
	}
	scen, err := load.ParseScenario(*scenario)
	if err != nil {
		log.Fatal(err)
	}
	var recorder *obs.Recorder
	var captureFile *os.File
	if *capture != "" {
		// A capture is one session's story; refuse to interleave a sweep.
		runs := sweepRuns(stratList, len(prodList)*len(rateList)*len(batchList), stickList)
		if runs != 1 {
			log.Fatalf("-capture records a single configuration; this sweep has %d", runs)
		}
		f, err := os.Create(*capture)
		if err != nil {
			log.Fatalf("-capture: %v", err)
		}
		captureFile = f
		recorder = obs.NewRecorder(f)
	}

	var results []load.Result
	table := &stats.Table{Header: []string{
		"strategy", "producers", "rate", "batch", "stick", "S/B-final", "throughput/s",
		"p50(us)", "p95(us)", "p99(us)", "rank-err-mean", "rank-err-p99", "rank-err-max",
		"allocs/task", "shed%", "prot-p99(us)", "gated-w", "min-fair%",
	}}
	for _, strat := range stratList {
		for _, np := range prodList {
			for _, rate := range rateList {
				for _, batch := range batchList {
					for _, stick := range sticksFor(strat, stickList) {
						fmt.Fprintf(os.Stderr, "loadgen: %s producers=%d rate=%.0f batch=%d stickiness=%d adaptive=%v arrival=%s dist=%s duration=%s\n",
							strat, np, rate, batch, stick, *adaptive, arr, pd, *duration)
						lcfg := load.Config{
							Sched: sched.Config[load.Task]{
								Strategy:        strat,
								Places:          *places,
								K:               *k,
								Batch:           batch,
								Stickiness:      stick,
								Adaptive:        *adaptive,
								RankErrorBudget: *rankBudget,
								AdaptInterval:   *adaptEvery,
								Backpressure:    *backpress,
								SojournBudget:   *sojournBud,
								ProtectedBand:   *protBand,
								SpillCap:        *spillCap,
								Recorder:        recorder,
								Seed:            *seed,
							},
							Producers:  np,
							Duration:   *duration,
							Arrival:    arr,
							Rate:       rate,
							OnPeriod:   *onPeriod,
							OffPeriod:  *offPeriod,
							Window:     *window,
							Dist:       pd,
							WorkSpin:   *spin,
							RankSample: *rankSample,
							Scenario:   scen,
						}
						if len(tenWeights) > 0 {
							// The tenant knobs are only forwarded
							// together with a weight vector — the
							// generator rejects a skew on its own.
							lcfg.Sched.TenantWeights = tenWeights
							lcfg.Sched.TenantFloorFrac = *tenFloor
							lcfg.Sched.TenantBudgets = tenBudgetList
							lcfg.TenantSkew = *tenSkew
						}
						res, err := load.Run(lcfg)
						if err != nil {
							log.Fatalf("%s: %v", strat, err)
						}
						results = append(results, res)
						rateCell := stats.F(rate, 0)
						if arr == load.ClosedLoop {
							rateCell = "closed" // the rate flag is ignored
						}
						finalCell := "-"
						if res.Adaptive {
							finalCell = fmt.Sprintf("%d/%d", res.FinalStickiness, res.FinalBatch)
						}
						shedCell, protCell := "-", "-"
						if res.Backpressure {
							shedCell = stats.F(res.ShedRate*100, 2)
							protCell = stats.F(res.Bands[0].SojournNs.P99/1e3, 1)
						}
						gatedCell, fairCell := "-", "-"
						if len(res.Tenants) > 0 {
							gatedCell = stats.I(int64(res.FairGatedWindows))
							// The headline fairness number: the worst
							// tenant's goodput as a percentage of its
							// weight-fair share.
							minFair := -1.0
							for _, tn := range res.Tenants {
								if tn.FairSharePerSec <= 0 {
									continue
								}
								if f := tn.GoodputPerSec / tn.FairSharePerSec; minFair < 0 || f < minFair {
									minFair = f
								}
							}
							if minFair >= 0 {
								fairCell = stats.F(minFair*100, 1)
							}
						}
						table.AddRow(
							res.Strategy,
							stats.I(int64(res.Producers)),
							rateCell,
							stats.I(int64(res.Batch)),
							stats.I(int64(res.Stickiness)),
							finalCell,
							stats.F(res.ThroughputPerSec, 0),
							stats.F(res.SojournNs.P50/1e3, 1),
							stats.F(res.SojournNs.P95/1e3, 1),
							stats.F(res.SojournNs.P99/1e3, 1),
							stats.F(res.RankErrMean, 1),
							stats.F(res.RankErr.P99, 0),
							stats.I(res.RankErrMax),
							stats.F(res.AllocsPerTask, 2),
							shedCell,
							protCell,
							gatedCell,
							fairCell,
						)
					}
				}
			}
		}
	}

	if recorder != nil {
		if err := recorder.Err(); err != nil {
			log.Fatalf("-capture: %v", err)
		}
		if err := captureFile.Close(); err != nil {
			log.Fatalf("-capture: %v", err)
		}
		if n := recorder.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "loadgen: capture ring overflow, %d arrivals dropped\n", n)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(os.Stderr)
	if err := table.Fprint(os.Stderr); err != nil {
		log.Fatal(err)
	}
}
