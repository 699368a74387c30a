package sched

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/fair"
	"repro/internal/xrand"
)

// admitCase is one forced gate state plus the scripted arrivals driven
// through it. The controllers are quiesced (hour-long AdaptInterval), so
// the gate state stays exactly what the case stored.
type admitCase struct {
	name      string
	weights   []int64     // nil: no tenancy
	threshold int64       // backpressure gate; 0 leaves it fully open
	fair      *fair.State // tenant gate; nil leaves it open
	spillCap  int
	band      int64
	arrivals  []tenTask
	// check asserts that the singles replay actually exercised the gate
	// stage the case is named for (counts tallies its outcomes).
	check func(t *testing.T, c admitCase, r admitResult, counts map[Outcome]int64)
}

// admitResult is everything one replay of a case observed: the per-task
// outcomes, then the admission ledger while every accepted task is still
// outstanding (workers blocked in Execute), then the books after Stop.
type admitResult struct {
	outcomes                                    []Outcome
	tenants                                     []TenantCounters
	shed, deferred, tenShed, tenDeferred        int64
	admitted, pending, injected                 int64
	finalTenants                                []TenantCounters
	finalExecuted, finalReadmitted, finalPushes int64
}

// replayAdmit drives c.arrivals through a fresh scheduler: one SubmitK
// per task when batch == 0, SubmitAllKOutcomes in batches of batch
// otherwise.
func replayAdmit(t *testing.T, c admitCase, batch int) admitResult {
	t.Helper()
	release := make(chan struct{})
	cfg := tenantConfig(c.weights)
	if c.weights == nil {
		cfg.TenantWeights, cfg.Tenant = nil, nil
	}
	cfg.Execute = func(ctx *Ctx[tenTask], v tenTask) { <-release }
	cfg.AdaptInterval = time.Hour // no controller tick during the test
	cfg.SpillCap = c.spillCap
	cfg.ProtectedBand = c.band
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if c.threshold > 0 {
		s.bpGate.Store(c.threshold)
	}
	if c.fair != nil {
		s.applyFair(*c.fair)
	}

	var r admitResult
	if batch == 0 {
		for _, v := range c.arrivals {
			before := s.deferredN.Load()
			err := s.SubmitK(cfg.K, v)
			switch {
			case errors.Is(err, ErrShed):
				r.outcomes = append(r.outcomes, Shed)
			case err != nil:
				t.Fatal(err)
			case s.deferredN.Load() > before:
				r.outcomes = append(r.outcomes, Deferred)
			default:
				r.outcomes = append(r.outcomes, Admitted)
			}
		}
	} else {
		r.outcomes = make([]Outcome, len(c.arrivals))
		for lo := 0; lo < len(c.arrivals); lo += batch {
			hi := lo + batch
			if hi > len(c.arrivals) {
				hi = len(c.arrivals)
			}
			accepted, err := s.SubmitAllKOutcomes(cfg.K, c.arrivals[lo:hi], r.outcomes[lo:hi])
			shedN := 0
			for _, o := range r.outcomes[lo:hi] {
				if o == Shed {
					shedN++
				}
			}
			if accepted != hi-lo-shedN || (err != nil) != (shedN > 0) || (err != nil && !errors.Is(err, ErrShed)) {
				t.Fatalf("batch [%d,%d): accepted %d, err %v, but %d outcomes are Shed", lo, hi, accepted, err, shedN)
			}
		}
	}

	st := s.Stats()
	r.tenants = s.TenantCounters()
	r.shed, r.deferred, r.tenShed, r.tenDeferred = st.Shed, st.Deferred, st.TenantShed, st.TenantDeferred
	r.admitted, r.pending, r.injected = s.admittedN.Load(), s.Pending(), s.injected.Load()

	close(release)
	stopped := make(chan RunStats, 1)
	go func() {
		rs, err := s.Stop()
		if err != nil {
			t.Error(err)
		}
		stopped <- rs
	}()
	select {
	case rs := <-stopped:
		r.finalExecuted, r.finalReadmitted, r.finalPushes = rs.Executed, rs.DS.Readmitted, rs.DS.Pushes
	case <-time.After(30 * time.Second):
		t.Fatal("Stop wedged: a shed task's pending/finish-region accounting was not rolled back")
	}
	r.finalTenants = s.TenantCounters()
	return r
}

// TestAdmissionPathsEquivalent pins that the single-task and the batch
// submit shapes are one admission gate: the same scripted arrivals
// through the same forced gate state yield identical per-task outcomes,
// identical per-tenant ledgers and identical admission counters whether
// they arrive one SubmitK at a time or in SubmitAllKOutcomes batches of
// 1, 3 and 8 — and the accounting of every outcome is exact (accepted
// tasks outstanding until executed, shed tasks fully rolled back).
func TestAdmissionPathsEquivalent(t *testing.T) {
	const band = 1 << 10
	// 60 arrivals over three tenants, priorities spread around the
	// band and the tightened threshold used below (4·band).
	r := xrand.New(17)
	var mixed []tenTask
	for i := 0; i < 60; i++ {
		mixed = append(mixed, tenTask{tenant: r.Intn(3), prio: int64(r.Intn(8 * band))})
	}
	w := []int64{2, 1, 1}
	fullSpillway := func(t *testing.T, c admitCase, r admitResult, counts map[Outcome]int64) {
		if counts[Deferred] != int64(c.spillCap) || counts[Shed] == 0 {
			t.Fatalf("want a full spillway and sheds; got %v", counts)
		}
	}
	cases := []admitCase{
		{name: "gate open", spillCap: 64, band: band, arrivals: mixed,
			check: func(t *testing.T, c admitCase, r admitResult, counts map[Outcome]int64) {
				if counts[Admitted] != int64(len(c.arrivals)) {
					t.Fatalf("open gate turned tasks away: %v", counts)
				}
			}},
		{name: "threshold only", threshold: 4 * band, spillCap: 64, band: band, arrivals: mixed,
			check: func(t *testing.T, c admitCase, r admitResult, counts map[Outcome]int64) {
				if counts[Deferred] == 0 || counts[Shed] != 0 {
					t.Fatalf("threshold case must defer and not shed: %v", counts)
				}
			}},
		{name: "tenant floor and quota", weights: w, threshold: 4 * band, spillCap: 64, band: band,
			fair: &fair.State{Gated: true, Quotas: []int64{6, 3, 40}, Floors: []int64{2, 2, 0}}, arrivals: mixed,
			check: func(t *testing.T, c admitCase, r admitResult, counts map[Outcome]int64) {
				floored := false
				for i, v := range c.arrivals {
					if v.prio < band && r.outcomes[i] != Admitted {
						t.Fatalf("arrival %d in the protected band was %v", i, r.outcomes[i])
					}
					floored = floored || (v.prio > c.threshold && r.outcomes[i] == Admitted)
				}
				if !floored || r.tenDeferred == 0 || r.deferred == r.tenDeferred {
					t.Fatalf("want a floor admission above the threshold, quota deferrals and threshold deferrals; got floored=%v tenDeferred=%d deferred=%d",
						floored, r.tenDeferred, r.deferred)
				}
			}},
		{name: "protected band bypasses both gates", weights: w, threshold: band, spillCap: 64, band: band,
			fair: &fair.State{Gated: true, Quotas: []int64{0, 0, 0}, Floors: []int64{0, 0, 0}}, arrivals: mixed,
			check: func(t *testing.T, c admitCase, r admitResult, counts map[Outcome]int64) {
				for i, v := range c.arrivals {
					if (v.prio < band) != (r.outcomes[i] == Admitted) {
						t.Fatalf("arrival %d prio %d: %v (zero quotas admit exactly the protected band)", i, v.prio, r.outcomes[i])
					}
				}
			}},
		{name: "spillway full sheds", weights: w, threshold: 2 * band, spillCap: 5, band: band,
			fair: &fair.State{Gated: true, Quotas: []int64{4, 4, 4}, Floors: []int64{1, 1, 1}}, arrivals: mixed,
			check: func(t *testing.T, c admitCase, r admitResult, counts map[Outcome]int64) {
				fullSpillway(t, c, r, counts)
				if r.tenShed == 0 || r.tenShed == r.shed {
					t.Fatalf("want quota sheds and threshold sheds; got tenShed=%d of shed=%d", r.tenShed, r.shed)
				}
			}},
		{name: "spillway full sheds without tenants", threshold: 2 * band, spillCap: 5, band: band, arrivals: mixed,
			check: fullSpillway},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want := replayAdmit(t, c, 0)

			// The reference itself must be exact, or equality proves nothing.
			counts := map[Outcome]int64{}
			for _, o := range want.outcomes {
				counts[o]++
			}
			accepted := counts[Admitted] + counts[Deferred]
			if want.shed != counts[Shed] || want.deferred != counts[Deferred] || want.admitted != counts[Admitted] {
				t.Fatalf("counters disagree with outcomes %v: shed=%d deferred=%d admitted=%d", counts, want.shed, want.deferred, want.admitted)
			}
			if want.pending != accepted || want.injected != accepted {
				t.Fatalf("with %d accepted tasks outstanding: pending=%d injected=%d (shed tasks must be rolled back)",
					accepted, want.pending, want.injected)
			}
			if want.finalExecuted != accepted || want.finalReadmitted != counts[Deferred] || want.finalPushes != accepted {
				t.Fatalf("after Stop: executed=%d readmitted=%d pushes=%d, want %d/%d/%d",
					want.finalExecuted, want.finalReadmitted, want.finalPushes, accepted, counts[Deferred], accepted)
			}
			c.check(t, c, want, counts)

			for _, batch := range []int{1, 3, 8} {
				if got := replayAdmit(t, c, batch); !reflect.DeepEqual(got, want) {
					t.Errorf("batches of %d diverge from singles:\n got %+v\nwant %+v", batch, got, want)
				}
			}
		})
	}
}
