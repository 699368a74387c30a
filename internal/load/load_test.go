package load

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func shortDur(t *testing.T) time.Duration {
	if testing.Short() {
		return 50 * time.Millisecond
	}
	return 200 * time.Millisecond
}

// TestRunPoissonAllServingStrategies: the whole pipeline — serve, pace,
// instrument, drain — must hold for every strategy the serve mode
// supports, with every submitted task executed.
func TestRunPoissonAllServingStrategies(t *testing.T) {
	for _, strat := range []sched.Strategy{
		sched.WorkStealing, sched.Centralized, sched.Hybrid,
		sched.Relaxed, sched.GlobalHeap,
	} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{
				Sched: sched.Config[Task]{
					Strategy: strat,
					Places:   4,
					K:        512,
					Seed:     1,
				},
				Producers: 2,
				Duration:  shortDur(t),
				Arrival:   Poisson,
				Rate:      20000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Submitted == 0 {
				t.Fatal("no tasks submitted")
			}
			if res.Executed != res.Submitted {
				t.Fatalf("executed %d != submitted %d", res.Executed, res.Submitted)
			}
			if res.SojournNs.N != uint64(res.Executed) {
				t.Fatalf("histogram saw %d of %d executions", res.SojournNs.N, res.Executed)
			}
			s := res.SojournNs
			if !(s.P50 <= s.P95 && s.P95 <= s.P99) {
				t.Fatalf("percentiles not monotone: %+v", s)
			}
			if res.RankErrSamples != res.Executed {
				t.Fatalf("rank sampled %d of %d (RankSample=1)", res.RankErrSamples, res.Executed)
			}
			if res.RankErrMean < 0 {
				t.Fatalf("negative mean rank error %v", res.RankErrMean)
			}
		})
	}
}

func TestRunBursty(t *testing.T) {
	res, err := Run(Config{
		Sched: sched.Config[Task]{
			Strategy: sched.Hybrid,
			Places:   2,
			K:        512,
			Seed:     2,
		},
		Producers: 2,
		Duration:  shortDur(t),
		Arrival:   Bursty,
		Rate:      20000,
		OnPeriod:  5 * time.Millisecond,
		OffPeriod: 5 * time.Millisecond,
		Dist:      SkewedPrio,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != res.Submitted || res.Submitted == 0 {
		t.Fatalf("executed %d / submitted %d", res.Executed, res.Submitted)
	}
	// Half the time is silence, so the achieved count must stay clearly
	// under the open-loop target for the full window.
	target := res.TargetRate * res.ElapsedSec
	if float64(res.Submitted) > 0.8*target {
		t.Fatalf("bursty submitted %d, suspiciously close to continuous target %.0f", res.Submitted, target)
	}
}

func TestRunClosedLoop(t *testing.T) {
	const producers, window = 3, 16
	res, err := Run(Config{
		Sched: sched.Config[Task]{
			Strategy: sched.Centralized,
			Places:   2,
			K:        512,
			Seed:     3,
		},
		Producers: producers,
		Duration:  shortDur(t),
		Arrival:   ClosedLoop,
		Window:    window,
		WorkSpin:  200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != res.Submitted || res.Submitted == 0 {
		t.Fatalf("executed %d / submitted %d", res.Executed, res.Submitted)
	}
	if res.TargetRate != 0 {
		t.Fatalf("closed-loop reported target rate %v", res.TargetRate)
	}
	// The live set can never exceed the aggregate window, so neither can
	// the rank error (which counts a strict subset of the live set).
	if res.RankErrMax > producers*window {
		t.Fatalf("rank error %d exceeds closed-loop window %d", res.RankErrMax, producers*window)
	}
}

// TestRunAdaptive drives the full adaptive pipeline: closed-loop
// saturation traffic, the decaying rank-error estimator as the budget
// signal, and the live S/B controller. The knobs must move off their
// seeds, every traced window must respect the default limits, and the
// trace must agree with the reported final state.
func TestRunAdaptive(t *testing.T) {
	res, err := Run(Config{
		Sched: sched.Config[Task]{
			Strategy:        sched.RelaxedSampleTwo,
			Places:          4,
			Adaptive:        true,
			RankErrorBudget: 512,
			AdaptInterval:   2 * time.Millisecond,
			Seed:            9,
		},
		Producers:  4,
		Duration:   2 * shortDur(t),
		Arrival:    ClosedLoop,
		Window:     64,
		RankSample: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != res.Submitted || res.Submitted == 0 {
		t.Fatalf("executed %d / submitted %d", res.Executed, res.Submitted)
	}
	if !res.Adaptive || res.RankErrorBudget != 512 {
		t.Fatalf("adaptive metadata missing: %+v", res)
	}
	if len(res.AdaptTrace) == 0 {
		t.Fatal("no controller trace recorded")
	}
	last := res.AdaptTrace[len(res.AdaptTrace)-1].State
	if last.Stickiness != res.FinalStickiness || last.Batch != res.FinalBatch {
		t.Fatalf("trace end %+v disagrees with final S=%d B=%d",
			last, res.FinalStickiness, res.FinalBatch)
	}
	if res.FinalBatch <= 1 && res.FinalStickiness <= 1 {
		t.Fatal("controller never moved either knob off its seed under saturation")
	}
	for i, w := range res.AdaptTrace {
		if w.State.Stickiness < 1 || w.State.Stickiness > 64 ||
			w.State.Batch < 1 || w.State.Batch > 64 {
			t.Fatalf("trace window %d outside default limits: %+v", i, w.State)
		}
	}
}

func TestRankErrorZeroWhenSequential(t *testing.T) {
	// A closed loop of one: the live set never holds more than one task,
	// so no popped task can ever have a better-priority task pending and
	// the rank error is identically zero.
	res, err := Run(Config{
		Sched: sched.Config[Task]{
			Strategy: sched.GlobalHeap,
			Places:   1,
			Seed:     4,
		},
		Producers: 1,
		Duration:  shortDur(t),
		Arrival:   ClosedLoop,
		Window:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RankErrMean != 0 || res.RankErrMax != 0 {
		t.Fatalf("rank error %v/%d with a single-task closed loop", res.RankErrMean, res.RankErrMax)
	}
}

func TestStrictKSentinel(t *testing.T) {
	// Sched.K reaches the scheduler as written: 0 is the strict k = 0 it
	// says (it used to be remapped to 512, so `loadgen -k 0` measured
	// k = 512), and the result reports it. There is no negative alias.
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Sched.K != 0 {
		t.Fatalf("K=0 normalized to %d, want it left alone", cfg.Sched.K)
	}
	strict := Config{
		Sched: sched.Config[Task]{
			Strategy: sched.Centralized,
			Places:   2,
			Seed:     7,
		},
		Producers: 1,
		Duration:  shortDur(t),
		Rate:      5000,
	}
	res, err := Run(strict)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 0 {
		t.Fatalf("result reports k=%d for a strict run", res.K)
	}
	if res.Executed != res.Submitted || res.Submitted == 0 {
		t.Fatalf("executed %d / submitted %d", res.Executed, res.Submitted)
	}
	strict.Sched.K = -1
	if _, err := Run(strict); err == nil {
		t.Fatal("K = -1 accepted")
	}
}

func TestRankSampling(t *testing.T) {
	res, err := Run(Config{
		Sched: sched.Config[Task]{
			Strategy: sched.WorkStealing,
			Places:   2,
			Seed:     5,
		},
		Producers:  1,
		Duration:   shortDur(t),
		Rate:       20000,
		RankSample: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RankErrSamples > res.Executed/10+1 {
		t.Fatalf("sampled %d of %d with RankSample=10", res.RankErrSamples, res.Executed)
	}
}

func TestDrawPrioBounds(t *testing.T) {
	for _, dist := range []PrioDist{UniformPrio, SkewedPrio, RampPrio} {
		cfg, err := Config{Dist: dist, Duration: time.Second}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := newTracker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(6)
		for i := 0; i < 50000; i++ {
			at := int64(i) * int64(cfg.Duration) / 50000
			p := tr.drawPrio(rng, at)
			if p < 0 || p >= PrioRange {
				t.Fatalf("%v: priority %d out of [0, %d)", dist, p, PrioRange)
			}
		}
	}
}

// rejects runs base — which must itself be accepted — with each edit
// applied, and fails for every edit Run lets through.
func rejects(t *testing.T, base Config, edits ...func(*Config)) {
	t.Helper()
	base.Sched.Places, base.Duration = 1, time.Millisecond
	if _, err := Run(base); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	for i, edit := range edits {
		cfg := base
		edit(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	rejects(t, Config{},
		func(c *Config) { c.Producers = -1 },
		func(c *Config) { c.WorkSpin = -1 },
		func(c *Config) { c.RankSample = -1 },
		func(c *Config) { c.Arrival, c.Window, c.Sched.Batch = ClosedLoop, 4, 8 },
		func(c *Config) { c.Sched.Places = 0 }, // sched.New's check, not remapped
	)
}

func TestArrivalAndDistStrings(t *testing.T) {
	if Poisson.String() != "poisson" || Bursty.String() != "bursty" || ClosedLoop.String() != "closed-loop" {
		t.Fatal("arrival names changed")
	}
	if UniformPrio.String() != "uniform" || SkewedPrio.String() != "skewed" || RampPrio.String() != "ramp" {
		t.Fatal("dist names changed")
	}
	if Arrival(9).String() == "" || PrioDist(9).String() == "" {
		t.Fatal("unknown values must still render")
	}
}

// TestRunBackpressureOverload floods a throttled scheduler at several
// times its service capacity and checks the generator's backpressure
// instrumentation end to end: shed rate and bands in the result, the
// protected band never shed and fully executed, the admission counters
// balancing against the execution count, and the controller trace
// recorded.
func TestRunBackpressureOverload(t *testing.T) {
	res, err := Run(Config{
		Sched: sched.Config[Task]{
			Strategy:      sched.RelaxedSampleTwo,
			Places:        2,
			Backpressure:  true,
			SojournBudget: 5 * time.Millisecond,
			SpillCap:      256,
			AdaptInterval: 2 * time.Millisecond,
			Seed:          13,
		},
		Producers:  4,
		Duration:   2 * shortDur(t),
		Arrival:    Poisson,
		Rate:       400000,
		WorkSpin:   3000, // throttle the workers so the flood overloads
		RankSample: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Backpressure || res.ProtectedBand != res.Bands[0].Hi {
		t.Fatalf("backpressure metadata missing: %+v", res)
	}
	if res.Shed == 0 || res.ShedRate <= 0 {
		t.Fatalf("overload shed nothing: shed=%d rate=%v", res.Shed, res.ShedRate)
	}
	if res.Attempted != res.Submitted+res.Shed {
		t.Fatalf("attempted %d != submitted %d + shed %d", res.Attempted, res.Submitted, res.Shed)
	}
	if res.Executed != res.Submitted {
		t.Fatalf("executed %d of %d accepted", res.Executed, res.Submitted)
	}
	if res.Deferred != res.Readmitted {
		t.Fatalf("deferred %d != readmitted %d at quiescence", res.Deferred, res.Readmitted)
	}
	if len(res.Bands) != numBands {
		t.Fatalf("got %d bands, want %d", len(res.Bands), numBands)
	}
	var attempted, shed, executed int64
	for i, b := range res.Bands {
		attempted += b.Attempted
		shed += b.Shed
		executed += b.Executed
		if b.Attempted != b.Admitted+b.Deferred+b.Shed {
			t.Fatalf("band %d outcomes do not sum: %+v", i, b)
		}
		if b.Executed != b.Admitted+b.Deferred {
			t.Fatalf("band %d executed %d of %d accepted", i, b.Executed, b.Admitted+b.Deferred)
		}
	}
	if attempted != res.Attempted || shed != res.Shed || executed != res.Executed {
		t.Fatalf("band totals %d/%d/%d disagree with run totals %d/%d/%d",
			attempted, shed, executed, res.Attempted, res.Shed, res.Executed)
	}
	prot := res.Bands[0]
	if !prot.Protected || prot.Shed != 0 || prot.Deferred != 0 {
		t.Fatalf("protected band gated: %+v", prot)
	}
	if prot.Attempted == 0 || prot.Executed != prot.Attempted {
		t.Fatalf("protected band not fully served: %+v", prot)
	}
	if len(res.BPTrace) == 0 {
		t.Fatal("no backpressure trace recorded")
	}
	min := int64(res.Bands[numBands-1].Hi)
	for _, w := range res.BPTrace {
		if w.State.Threshold < min {
			min = w.State.Threshold
		}
	}
	if min >= res.Bands[numBands-1].Hi-1 {
		t.Fatal("threshold never tightened under overload")
	}
	if min < res.ProtectedBand {
		t.Fatalf("threshold tightened into the protected band: %d", min)
	}
}

// TestRunBackpressureUnderload: a comfortably provisioned run must not
// shed and must keep the gate fully open.
func TestRunBackpressureUnderload(t *testing.T) {
	res, err := Run(Config{
		Sched: sched.Config[Task]{
			Strategy:     sched.RelaxedSampleTwo,
			Places:       4,
			Backpressure: true,
			Seed:         17,
		},
		Producers:  2,
		Duration:   shortDur(t),
		Arrival:    Poisson,
		Rate:       20000,
		RankSample: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 0 || res.Deferred != 0 {
		t.Fatalf("underload gated traffic: shed=%d deferred=%d", res.Shed, res.Deferred)
	}
	if res.Executed != res.Submitted || res.Submitted == 0 {
		t.Fatalf("executed %d / submitted %d", res.Executed, res.Submitted)
	}
	if res.FinalThreshold != res.Bands[numBands-1].Hi-1 {
		t.Fatalf("underload moved the threshold to %d, want fully open %d",
			res.FinalThreshold, res.Bands[numBands-1].Hi-1)
	}
}

// TestRunBackpressureClosedLoop: shed tasks release their closed-loop
// budget token, so the loop keeps flowing under a gate instead of
// deadlocking on its own tokens.
func TestRunBackpressureClosedLoop(t *testing.T) {
	res, err := Run(Config{
		Sched: sched.Config[Task]{
			Strategy:      sched.RelaxedSampleTwo,
			Places:        2,
			Backpressure:  true,
			SojournBudget: 5 * time.Millisecond,
			AdaptInterval: 2 * time.Millisecond,
			Seed:          19,
		},
		Producers:  2,
		Duration:   shortDur(t),
		Arrival:    ClosedLoop,
		Window:     32,
		WorkSpin:   2000,
		RankSample: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != res.Submitted {
		t.Fatalf("executed %d of %d accepted", res.Executed, res.Submitted)
	}
	if res.Attempted != res.Submitted+res.Shed {
		t.Fatalf("attempted %d != submitted %d + shed %d", res.Attempted, res.Submitted, res.Shed)
	}
}

func TestBackpressureConfigValidation(t *testing.T) {
	rejects(t, Config{Sched: sched.Config[Task]{Backpressure: true}},
		func(c *Config) { c.Sched.ProtectedBand = PrioRange },
		func(c *Config) { c.Sched.ProtectedBand = -1 },
		func(c *Config) { c.Sched.SpillCap = -1 },
		func(c *Config) { c.Sched.SojournBudget = -time.Second },
	)
}

func TestBandMapping(t *testing.T) {
	cfg, err := Config{Sched: sched.Config[Task]{Backpressure: true}, Duration: time.Second}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newTracker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pb := cfg.Sched.ProtectedBand
	span := PrioRange - pb
	band2Lo := pb + (span+2)/3 // smallest priority flooring into band 2
	cases := []struct {
		prio int64
		want int
	}{
		{0, 0}, {pb - 1, 0}, {pb, 1},
		{band2Lo - 1, 1},
		{band2Lo, 2},
		{PrioRange - 1, 3},
	}
	for _, tc := range cases {
		if got := tr.band(tc.prio); got != tc.want {
			t.Errorf("band(%d) = %d, want %d", tc.prio, got, tc.want)
		}
	}
}

// TestRunTenantSkew floods a throttled scheduler with a 10×-skewed
// four-tenant mix and checks the tenant instrumentation end to end:
// per-tenant ledgers conserving task flow, every tenant making
// progress, and the fairness trace recorded. Whether the flood actually
// overloads this box, and how the gate then splits the executed work,
// depends on wall-clock speed, so neither is asserted here: the gate
// engaging and the hot/cold ratio are pinned deterministically by
// fair/simtest and end to end by the CI tenant-skew smoke.
func TestRunTenantSkew(t *testing.T) {
	res, err := Run(Config{
		Sched: sched.Config[Task]{
			Strategy:      sched.RelaxedSampleTwo,
			Places:        2,
			Backpressure:  true,
			SojournBudget: 5 * time.Millisecond,
			SpillCap:      256,
			AdaptInterval: 2 * time.Millisecond,
			TenantWeights: []int64{1, 1, 1, 1},
			Seed:          13,
		},
		Producers:  4,
		Duration:   2 * shortDur(t),
		Arrival:    Poisson,
		Rate:       400000,
		WorkSpin:   3000, // throttle the workers so the flood overloads
		RankSample: 4,
		TenantSkew: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 4 || res.TenantSkew != 10 {
		t.Fatalf("tenant metadata missing: %+v", res.Tenants)
	}
	if len(res.FairTrace) == 0 {
		t.Fatal("no fairness trace recorded")
	}
	var attempted, shed, executed int64
	for _, tn := range res.Tenants {
		attempted += tn.Attempted
		shed += tn.Shed
		executed += tn.Executed
		if tn.Attempted != tn.Admitted+tn.Deferred+tn.Shed {
			t.Fatalf("tenant %d outcomes do not sum: %+v", tn.Tenant, tn)
		}
		if tn.Executed != tn.Admitted+tn.Deferred {
			t.Fatalf("tenant %d executed %d of %d accepted", tn.Tenant, tn.Executed, tn.Admitted+tn.Deferred)
		}
		if tn.Executed == 0 {
			t.Fatalf("tenant %d starved: %+v", tn.Tenant, tn)
		}
		if tn.FairSharePerSec <= 0 {
			t.Fatalf("tenant %d has no fair-share yardstick: %+v", tn.Tenant, tn)
		}
	}
	if attempted != res.Attempted || shed != res.Shed || executed != res.Executed {
		t.Fatalf("tenant totals %d/%d/%d disagree with run totals %d/%d/%d",
			attempted, shed, executed, res.Attempted, res.Shed, res.Executed)
	}
}

// TestRunScenarios: the diurnal and inflation scenarios must run to
// completion with the tenant ledgers intact, and the inflation run must
// keep every cold tenant progressing despite the hot tenant claiming
// top priorities.
func TestRunScenarios(t *testing.T) {
	for _, sc := range []Scenario{DiurnalRamp, PriorityInflation} {
		res, err := Run(Config{
			Sched: sched.Config[Task]{
				Strategy:      sched.RelaxedSampleTwo,
				Places:        2,
				Backpressure:  true,
				SojournBudget: 5 * time.Millisecond,
				SpillCap:      256,
				AdaptInterval: 2 * time.Millisecond,
				TenantWeights: []int64{1, 1, 1},
				Seed:          23,
			},
			Producers:  2,
			Duration:   2 * shortDur(t),
			Arrival:    Poisson,
			Rate:       200000,
			WorkSpin:   2000,
			RankSample: 4,
			TenantSkew: 8,
			Scenario:   sc,
		})
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if res.Scenario != sc.String() {
			t.Fatalf("scenario %v reported as %q", sc, res.Scenario)
		}
		for _, tn := range res.Tenants {
			if tn.Executed == 0 {
				t.Errorf("%v: tenant %d starved", sc, tn.Tenant)
			}
			if tn.Attempted != tn.Admitted+tn.Deferred+tn.Shed {
				t.Errorf("%v: tenant %d outcomes do not sum: %+v", sc, tn.Tenant, tn)
			}
		}
	}
}

// TestTenantLoadConfigValidation pins the tenant knob contract.
func TestTenantLoadConfigValidation(t *testing.T) {
	tenants := Config{Sched: sched.Config[Task]{Backpressure: true, TenantWeights: []int64{1, 1}}}
	rejects(t, tenants,
		func(c *Config) { c.Sched.Backpressure = false }, // sched rejects
		func(c *Config) { c.TenantSkew = -1 },
		func(c *Config) { c.Sched.TenantWeights = []int64{-1, 1} }, // sched rejects
		// Inflation with a hot tenant and no cold one.
		func(c *Config) { c.Sched.TenantWeights, c.Scenario = []int64{1}, PriorityInflation },
	)
	rejects(t, Config{},
		func(c *Config) { c.TenantSkew = 4 }, // skew without tenants
		func(c *Config) { c.Sched.Backpressure, c.Scenario = true, PriorityInflation },
	)
}

// TestDiurnalFactorShape pins the ramp profile's endpoints and symmetry.
func TestDiurnalFactorShape(t *testing.T) {
	cfg, err := Config{Duration: time.Second}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracker{cfg: cfg}
	d := int64(time.Second)
	cases := []struct {
		at   int64
		want float64
	}{
		{0, 0.4}, {d / 8, 0.4}, {d / 2, 1}, {5 * d / 8, 1}, {d, 0.4},
	}
	for _, c := range cases {
		if got := tr.diurnalFactor(c.at); got != c.want {
			t.Errorf("diurnalFactor(%d) = %v, want %v", c.at, got, c.want)
		}
	}
	if up, down := tr.diurnalFactor(3*d/8), tr.diurnalFactor(7*d/8); up != down {
		t.Errorf("ramp not symmetric: up %v, down %v", up, down)
	}
}

// TestArrivalStamp pins what Task.Enq means. Both producers start a
// full second behind the run's clock. The open-loop one is therefore
// late for every arrival of its 5ms schedule: each task must carry the
// instant it was due, so the lateness lands in the recorded sojourn
// (stamping the clock after pacing, as this generator used to, hid it).
// The closed-loop one has no schedule to be late for and keeps stamping
// the clock.
func TestArrivalStamp(t *testing.T) {
	const late = time.Second
	run := func(arrival Arrival, d time.Duration) (enq []int64, sojourn stats.Summary) {
		cfg, err := Config{
			Sched:    sched.Config[Task]{Places: 1, Strategy: sched.GlobalHeap, Seed: 11},
			Arrival:  arrival,
			Duration: d,
			Rate:     100000,
			Window:   4,
		}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := newTracker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr.epoch = tr.epoch.Add(-late)
		sc := tr.schedConfig()
		instrument := sc.Execute
		sc.Execute = func(ctx *sched.Ctx[Task], task Task) {
			enq = append(enq, task.Enq) // one place: no concurrent appends
			instrument(ctx, task)
		}
		s, err := sched.New(sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		if err := tr.produce(s, xrand.New(11)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Stop(); err != nil {
			t.Fatal(err)
		}
		if len(enq) == 0 {
			t.Fatalf("%v: nothing executed", arrival)
		}
		return enq, tr.summarize(func(h *placeHists) *stats.Histogram { return h.sojourn })
	}

	const d = 5 * time.Millisecond
	enq, sojourn := run(Poisson, d)
	for _, at := range enq {
		if at < 0 || at >= int64(d) {
			t.Fatalf("open-loop task stamped %d, outside its schedule [0, %d)", at, int64(d))
		}
	}
	if sojourn.Min < float64(late-d) {
		t.Fatalf("open-loop sojourn min %.0fns hides the producer's %v lateness", sojourn.Min, late)
	}
	enq, _ = run(ClosedLoop, late+20*time.Millisecond)
	for _, at := range enq {
		if at < int64(late) {
			t.Fatalf("closed-loop task stamped %d, before the clock's first reading %d", at, int64(late))
		}
	}
}

// TestArrivalsSchedulePinned: the one open-loop schedule reproduces,
// draw for draw, the two loops it replaced. The values are the first
// due instants those loops computed for seed 42 at 25 000 arrivals/s —
// the Poisson loop directly, the bursty loop with a 100µs on-period and
// a 300µs off-period.
func TestArrivalsSchedulePinned(t *testing.T) {
	for name, tc := range map[string]struct {
		off  int64
		want []int64
	}{
		"poisson": {0, []int64{67346, 82703, 247846, 296156, 359255, 394734, 400092, 437259}},
		"bursty":  {300000, []int64{67346, 82703, 847846, 896156, 1259255, 1294734, 1600092, 1637259}},
	} {
		arr := arrivals{rng: xrand.New(42), rate: 25000, on: 100000, off: tc.off}
		for i, want := range tc.want {
			if got := arr.next(); got != want {
				t.Fatalf("%s: due instant %d = %d, want %d", name, i, got, want)
			}
		}
	}
}

// TestNameTablesRoundTrip: every name a String prints is the name its
// Parse accepts, and an unknown name is refused with the accepted list.
func TestNameTablesRoundTrip(t *testing.T) {
	roundTrip(t, ArrivalNames(), ParseArrival)
	roundTrip(t, DistNames(), ParseDist)
	roundTrip(t, ScenarioNames(), ParseScenario)
}

func roundTrip[E interface {
	~int
	String() string
}](t *testing.T, names []string, parse func(string) (E, error)) {
	t.Helper()
	for i, name := range names {
		if v, err := parse(E(i).String()); err != nil || v != E(i) || v.String() != name {
			t.Errorf("%q: String %q parses back to %d (%v), want %d", name, E(i).String(), v, err, i)
		}
	}
	_, err := parse("no-such-name")
	if err == nil {
		t.Fatalf("unknown name accepted beside %v", names)
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// TestResultJSONContract pins the JSON keys the CI smoke steps read
// with jq (.github/workflows/ci.yml: adaptive, backpressure and
// tenant-skew serve smokes), so renaming one fails here rather than in
// CI.
func TestResultJSONContract(t *testing.T) {
	for _, tc := range []struct {
		v    any
		keys []string
	}{
		{Result{}, []string{
			"executed",
			"adaptive", "final_stickiness", "final_batch", "adapt_trace",
			"backpressure", "shed_rate", "bands", "bp_trace",
			"tenants", "fair_trace",
		}},
		{BandResult{}, []string{"protected", "shed", "deferred", "goodput_per_sec"}},
		{TenantResult{}, []string{"tenant", "weight", "executed", "goodput_per_sec", "fair_share_per_sec"}},
	} {
		typ := reflect.TypeOf(tc.v)
		have := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			key, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			have[key] = true
		}
		for _, key := range tc.keys {
			if !have[key] {
				t.Errorf("%s has no field with json key %q", typ.Name(), key)
			}
		}
	}
}
