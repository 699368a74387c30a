package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func ledgerScheduler(t *testing.T) *Scheduler[int64] {
	t.Helper()
	s, err := New(Config[int64]{Places: 2, Less: intLess, Execute: func(*Ctx[int64], int64) {}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScanOrder scripts the one schedule the order of scan's two passes
// exists for. Task A is running at place 0; between a reader's two
// passes A spawns B and retires. A reader that scans created before
// retired sees A's place as "spawned nothing" and then as "retired one":
// one created, one retired — quiescent, while B is outstanding. The
// shipped order reads A as not yet retired and B as created: it
// overestimates, and reports quiescence only once B retires too.
func TestScanOrder(t *testing.T) {
	schedule := func(s *Scheduler[int64]) func() {
		s.injected.Add(1) // A, a root
		return func() {
			s.led[0].spawn()  // A spawns B
			s.led[0].retire() // A is done
		}
	}

	s := ledgerScheduler(t)
	between := schedule(s)
	created := s.injected.Load()
	for i := range s.led {
		created += s.led[i].spawned.Load()
	}
	between()
	var retired int64
	for i := range s.led {
		retired += s.led[i].executed.Load() + s.led[i].eliminated.Load()
	}
	if created != retired {
		t.Fatalf("created-before-retired read %d created, %d retired: the schedule no longer fools it, so it no longer tests the order", created, retired)
	}

	s = ledgerScheduler(t)
	if got := s.scan(schedule(s)).outstanding(); got < 1 {
		t.Fatalf("scan reports %d outstanding while B is", got)
	}
	if s.quiescent() || s.Pending() != 1 {
		t.Fatalf("B outstanding: quiescent %v, Pending %d", s.quiescent(), s.Pending())
	}
	s.led[1].eliminate() // B turns out stale at place 1
	if !s.quiescent() || s.Pending() != 0 {
		t.Fatalf("nothing outstanding: quiescent %v, Pending %d", s.quiescent(), s.Pending())
	}
}

// TestTerminationExactCounts runs, on all eight strategies and on one
// scheduler each, a binary spawn tree (one level of it inside a nested
// Finish), then a batch of roots that are all stale, then the tree
// again: every Run must return — the double scan finds the quiescent
// instant — with exactly the tasks it created retired, and the ledgers'
// running totals must carry from one Run to the next. CI repeats it
// under -race -cpu=1,2,4 -count=5.
func TestTerminationExactCounts(t *testing.T) {
	const depth = 9
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			t.Parallel()
			var condemned atomic.Bool
			var finished atomic.Int64
			s, err := New(Config[int64]{
				Places:   4,
				Strategy: strat,
				K:        16,
				Less:     intLess,
				Stale:    func(int64) bool { return condemned.Load() },
				Execute: func(ctx *Ctx[int64], v int64) {
					switch {
					case v == 0:
					case v == depth/2:
						ctx.Finish(func() {
							ctx.Spawn(v - 1)
							ctx.Spawn(v - 1)
						})
						finished.Add(1)
					default:
						ctx.Spawn(v - 1)
						ctx.Spawn(v - 1)
					}
				},
				Seed: 21,
			})
			if err != nil {
				t.Fatal(err)
			}
			tree := func() {
				t.Helper()
				st, err := s.Run(depth)
				if err != nil {
					t.Fatal(err)
				}
				if want := int64(1)<<(depth+1) - 1; st.Executed != want || st.Spawned != want || st.Eliminated != 0 {
					t.Fatalf("tree: executed %d, spawned %d, eliminated %d, want %d/%d/0", st.Executed, st.Spawned, st.Eliminated, want, want)
				}
			}
			tree()
			condemned.Store(true)
			st, err := s.Run(1, 2, 3, 4, 5, 6, 7)
			if err != nil {
				t.Fatal(err)
			}
			if st.Executed != 0 || st.Eliminated != 7 || st.Spawned != 7 {
				t.Fatalf("all stale: executed %d, eliminated %d, spawned %d, want 0/7/7", st.Executed, st.Eliminated, st.Spawned)
			}
			condemned.Store(false)
			tree()
			if got, want := finished.Load(), int64(2)<<(depth-depth/2); got != want {
				t.Fatalf("%d Finish regions returned, want %d", got, want)
			}
			if p := s.Pending(); p != 0 {
				t.Fatalf("Pending = %d after three Runs", p)
			}
		})
	}
}

// TestTenantPendingSettlesOnElimination: a task retired as stale leaves
// its tenant's backlog like an executed one does. Every task of the
// session is stale, so after Drain each tenant's Pending — the fairness
// controller's overload signal — must be back at zero.
func TestTenantPendingSettlesOnElimination(t *testing.T) {
	cfg := tenantConfig([]int64{3, 1, 1})
	cfg.Stale = func(tenTask) bool { return true }
	cfg.Execute = func(*Ctx[tenTask], tenTask) { t.Error("stale task executed") }
	cfg.AdaptInterval = time.Hour // no controller tick: the gates stay open
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		if err := s.Submit(tenTask{tenant: i % 3, prio: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	for ten, tc := range s.TenantCounters() {
		if tc.Admitted != n/3 || tc.Pending != 0 {
			t.Errorf("tenant %d: admitted %d, pending %d after Drain, want %d and 0", ten, tc.Admitted, tc.Pending, n/3)
		}
	}
	st, err := s.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if st.Eliminated != n || st.Executed != 0 {
		t.Fatalf("eliminated %d, executed %d, want %d/0", st.Eliminated, st.Executed, n)
	}
}

// TestServePendingSettles: Pending is created minus retired, with the
// created side raised before the submission gate and rolled back on
// rejection — so whatever the producers' submissions came to (admitted,
// deferred, shed with ErrShed, refused with ErrNotServing while Stop
// closes the gate under them), it must read zero once Drain or Stop has
// returned, and the session's totals must balance against what the
// producers were told.
func TestServePendingSettles(t *testing.T) {
	const band = 100
	var executed atomic.Int64
	s, err := New(Config[int64]{
		Places:        3,
		Strategy:      Relaxed,
		K:             16,
		Injectors:     2,
		Less:          intLess,
		Priority:      func(v int64) int64 { return v % (4 * band) },
		MaxPrio:       4 * band,
		Backpressure:  true,
		ProtectedBand: band,
		SpillCap:      64,
		AdaptInterval: time.Hour, // the test sets the gate by hand
		Execute: func(ctx *Ctx[int64], v int64) {
			executed.Add(1)
			if v%64 == 0 {
				ctx.Spawn(v + 1) // spawns never pass the gate
			}
		},
		Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.bpGate.Store(2 * band) // half the priority range is turned away

	// produce submits until told to stop or refused, singles and batches
	// alternating, and reports how many tasks were accepted and shed.
	var accepted, shed, refused atomic.Int64
	produce := func(id int64, quota int, done *sync.WaitGroup) {
		defer done.Done()
		batch := make([]int64, 8)
		for i := 0; quota < 0 || i < quota; i++ {
			base := (id*1_000_000 + int64(i)) * 8
			var n int
			var err error
			if i%2 == 0 {
				n, err = 1, s.Submit(base)
				if err != nil {
					n = 0
				}
			} else {
				for j := range batch {
					batch[j] = base + int64(j)*37
				}
				n, err = s.SubmitAllOutcomes(batch, nil)
			}
			accepted.Add(int64(n))
			switch {
			case errors.Is(err, ErrNotServing):
				refused.Add(1)
				return
			case errors.Is(err, ErrShed):
				shed.Add(1)
			case err != nil:
				t.Error(err)
				return
			}
		}
	}

	var wg sync.WaitGroup
	for id := int64(0); id < 3; id++ {
		wg.Add(1)
		go produce(id, 400, &wg)
	}
	wg.Wait()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if p := s.Pending(); p != 0 {
		t.Fatalf("Pending = %d after Drain with the producers quiet", p)
	}
	if shed.Load() == 0 {
		t.Fatal("no submission was shed: the rollback path went untested")
	}

	// Second wave: unbounded producers, Stop closes the gate under them.
	for id := int64(3); id < 6; id++ {
		wg.Add(1)
		go produce(id, -1, &wg)
	}
	for accepted.Load() < 6000 {
		time.Sleep(100 * time.Microsecond)
	}
	st, err := s.Stop()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if refused.Load() != 3 {
		t.Fatalf("%d producers saw ErrNotServing, want 3", refused.Load())
	}
	if p := s.Pending(); p != 0 {
		t.Fatalf("Pending = %d after Stop", p)
	}
	spawned := st.Spawned - accepted.Load()
	if st.Executed != executed.Load() || st.Executed != st.Spawned || spawned < 0 || spawned > st.Executed {
		t.Fatalf("session: executed %d (Execute ran %d), spawned %d of which %d accepted submissions",
			st.Executed, executed.Load(), st.Spawned, accepted.Load())
	}
}
