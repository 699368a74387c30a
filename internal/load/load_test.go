package load

import (
	"testing"
	"time"

	"repro/internal/sched"
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
				Strategy:  strat,
				Places:    4,
				Producers: 2,
				Duration:  shortDur(t),
				Arrival:   Poisson,
				Rate:      20000,
				Seed:      1,
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
		Strategy:  sched.Hybrid,
		Places:    2,
		Producers: 2,
		Duration:  shortDur(t),
		Arrival:   Bursty,
		Rate:      20000,
		OnPeriod:  5 * time.Millisecond,
		OffPeriod: 5 * time.Millisecond,
		Dist:      SkewedPrio,
		Seed:      2,
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
		Strategy:  sched.Centralized,
		Places:    2,
		Producers: producers,
		Duration:  shortDur(t),
		Arrival:   ClosedLoop,
		Window:    window,
		WorkSpin:  200,
		Seed:      3,
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
		Strategy:        sched.RelaxedSampleTwo,
		Places:          4,
		Producers:       4,
		Duration:        2 * shortDur(t),
		Arrival:         ClosedLoop,
		Window:          64,
		Adaptive:        true,
		RankErrorBudget: 512,
		AdaptInterval:   2 * time.Millisecond,
		RankSample:      2,
		Seed:            9,
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
		Strategy:  sched.GlobalHeap,
		Places:    1,
		Producers: 1,
		Duration:  shortDur(t),
		Arrival:   ClosedLoop,
		Window:    1,
		Seed:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RankErrMean != 0 || res.RankErrMax != 0 {
		t.Fatalf("rank error %v/%d with a single-task closed loop", res.RankErrMean, res.RankErrMax)
	}
}

func TestStrictKSentinel(t *testing.T) {
	// K < 0 requests strict k = 0 (zero means "default 512"), and the
	// effective value is what the result reports.
	cfg, err := Config{K: -1}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.K != 0 {
		t.Fatalf("K=-1 normalized to %d, want 0", cfg.K)
	}
	cfg, err = Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.K != 512 {
		t.Fatalf("K=0 normalized to %d, want 512", cfg.K)
	}
	res, err := Run(Config{
		Strategy:  sched.Centralized,
		Places:    2,
		Producers: 1,
		Duration:  shortDur(t),
		Rate:      5000,
		K:         -1,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 0 {
		t.Fatalf("result reports k=%d for a strict run", res.K)
	}
	if res.Executed != res.Submitted || res.Submitted == 0 {
		t.Fatalf("executed %d / submitted %d", res.Executed, res.Submitted)
	}
}

func TestRankSampling(t *testing.T) {
	res, err := Run(Config{
		Strategy:   sched.WorkStealing,
		Places:     2,
		Producers:  1,
		Duration:   shortDur(t),
		Rate:       20000,
		RankSample: 10,
		Seed:       5,
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
			if p < 0 || p >= cfg.PrioRange {
				t.Fatalf("%v: priority %d out of [0, %d)", dist, p, cfg.PrioRange)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{PrioRange: 3},  // not a power of two
		{PrioRange: 64}, // below the rank-bucket resolution
		{Producers: -1},
		{WorkSpin: -1},
		{RankSample: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
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
		Strategy:      sched.RelaxedSampleTwo,
		Places:        2,
		Producers:     4,
		Duration:      2 * shortDur(t),
		Arrival:       Poisson,
		Rate:          400000,
		WorkSpin:      3000, // throttle the workers so the flood overloads
		Backpressure:  true,
		SojournBudget: 5 * time.Millisecond,
		SpillCap:      256,
		AdaptInterval: 2 * time.Millisecond,
		RankSample:    4,
		Seed:          13,
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
		Strategy:     sched.RelaxedSampleTwo,
		Places:       4,
		Producers:    2,
		Duration:     shortDur(t),
		Arrival:      Poisson,
		Rate:         20000,
		Backpressure: true,
		RankSample:   4,
		Seed:         17,
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
		Strategy:      sched.RelaxedSampleTwo,
		Places:        2,
		Producers:     2,
		Duration:      shortDur(t),
		Arrival:       ClosedLoop,
		Window:        32,
		WorkSpin:      2000,
		Backpressure:  true,
		SojournBudget: 5 * time.Millisecond,
		AdaptInterval: 2 * time.Millisecond,
		RankSample:    4,
		Seed:          19,
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
	bad := []Config{
		{Backpressure: true, ProtectedBand: 1 << 20}, // == PrioRange
		{Backpressure: true, ProtectedBand: -1},
		{Backpressure: true, SpillCap: -1},
		{Backpressure: true, SojournBudget: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestBandMapping(t *testing.T) {
	cfg, err := Config{Backpressure: true, Duration: time.Second}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newTracker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pb := cfg.ProtectedBand
	span := cfg.PrioRange - pb
	band2Lo := pb + (span+2)/3 // smallest priority flooring into band 2
	cases := []struct {
		prio int64
		want int
	}{
		{0, 0}, {pb - 1, 0}, {pb, 1},
		{band2Lo - 1, 1},
		{band2Lo, 2},
		{cfg.PrioRange - 1, 3},
	}
	for _, tc := range cases {
		if got := tr.band(tc.prio); got != tc.want {
			t.Errorf("band(%d) = %d, want %d", tc.prio, got, tc.want)
		}
	}
}

// TestRunGrouped drives a grouped run end to end: the result must carry
// the grouped extras (lane_groups, per-group stats summing to the
// executed total, a bounded steal rate), and an adaptive-placement run
// must additionally carry the controller's trace with every decision in
// bounds.
func TestRunGrouped(t *testing.T) {
	res, err := Run(Config{
		Strategy:   sched.Relaxed,
		Places:     4,
		Producers:  4,
		Duration:   300 * time.Millisecond,
		Arrival:    ClosedLoop,
		Window:     32,
		LaneGroups: 4,
		Stickiness: 4,
		RankSample: 4,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LaneGroups != 4 || res.FinalGroups != 4 {
		t.Fatalf("grouped extras missing: lane_groups=%d final=%d", res.LaneGroups, res.FinalGroups)
	}
	if len(res.Groups) != 4 {
		t.Fatalf("per-group stats: %d groups, want 4", len(res.Groups))
	}
	var groupExec int64
	for _, g := range res.Groups {
		groupExec += g.Executed
	}
	if groupExec != res.Executed {
		t.Fatalf("per-group executed sums to %d, run executed %d", groupExec, res.Executed)
	}
	if res.StealRate < 0 || res.StealRate > 1 {
		t.Fatalf("steal rate %v outside [0, 1]", res.StealRate)
	}
	if res.AdaptivePlacement || res.PlacementTrace != nil {
		t.Fatal("fixed grouped run reported adaptive-placement extras")
	}

	ares, err := Run(Config{
		Strategy:          sched.RelaxedSampleTwo,
		Places:            4,
		Producers:         4,
		Duration:          300 * time.Millisecond,
		Arrival:           ClosedLoop,
		Window:            32,
		LaneGroups:        4,
		AdaptivePlacement: true,
		AdaptInterval:     5 * time.Millisecond,
		RankSample:        4,
		Seed:              6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ares.AdaptivePlacement || len(ares.PlacementTrace) == 0 {
		t.Fatalf("adaptive placement run missing trace (%d windows)", len(ares.PlacementTrace))
	}
	for i, w := range ares.PlacementTrace {
		if w.State.Groups < 1 || w.State.Groups > 4 {
			t.Fatalf("trace window %d: groups %d outside [1, 4]", i, w.State.Groups)
		}
	}
	if ares.FinalGroups < 1 || ares.FinalGroups > 4 {
		t.Fatalf("final groups %d outside [1, 4]", ares.FinalGroups)
	}

	// A flat run must not grow grouped extras.
	flat, err := Run(Config{
		Strategy:  sched.Relaxed,
		Places:    2,
		Producers: 2,
		Duration:  100 * time.Millisecond,
		Arrival:   ClosedLoop,
		Window:    16,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if flat.LaneGroups != 0 || flat.Groups != nil {
		t.Fatalf("flat run reported grouped extras: %+v", flat.Groups)
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
		Strategy:      sched.RelaxedSampleTwo,
		Places:        2,
		Producers:     4,
		Duration:      2 * shortDur(t),
		Arrival:       Poisson,
		Rate:          400000,
		WorkSpin:      3000, // throttle the workers so the flood overloads
		Backpressure:  true,
		SojournBudget: 5 * time.Millisecond,
		SpillCap:      256,
		AdaptInterval: 2 * time.Millisecond,
		RankSample:    4,
		TenantWeights: []int64{1, 1, 1, 1},
		TenantSkew:    10,
		Seed:          13,
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
			Strategy:      sched.RelaxedSampleTwo,
			Places:        2,
			Producers:     2,
			Duration:      2 * shortDur(t),
			Arrival:       Poisson,
			Rate:          200000,
			WorkSpin:      2000,
			Backpressure:  true,
			SojournBudget: 5 * time.Millisecond,
			SpillCap:      256,
			AdaptInterval: 2 * time.Millisecond,
			RankSample:    4,
			TenantWeights: []int64{1, 1, 1},
			TenantSkew:    8,
			Scenario:      sc,
			Seed:          23,
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
	bad := []Config{
		{TenantWeights: []int64{1, 1}},                                     // no Backpressure
		{Backpressure: true, TenantWeights: []int64{1, 1}, TenantSkew: -1}, // negative skew
		{TenantSkew: 4}, // skew without tenants
		{Backpressure: true, Scenario: PriorityInflation},   // inflation without tenants
		{Backpressure: true, TenantWeights: []int64{-1, 1}}, // negative weight (sched rejects)
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
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
