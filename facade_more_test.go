package repro_test

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/sched"
)

func TestPublicGraphIO(t *testing.T) {
	g := repro.ErdosRenyi(80, 0.2, 5)
	var buf bytes.Buffer
	if err := repro.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := repro.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != g.N || back.M() != g.M() {
		t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d", back.N, back.M(), g.N, g.M())
	}
	wantDist, _ := repro.Dijkstra(g, 0)
	gotDist, _ := repro.Dijkstra(back, 0)
	for i := range wantDist {
		if wantDist[i] != gotDist[i] {
			t.Fatalf("distances changed by round trip at %d", i)
		}
	}
	if _, err := repro.ReadGraph(bytes.NewBufferString("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestPublicMultiObjective(t *testing.T) {
	bg := repro.RandomBiGraph(60, 0.2, 9)
	want, useful := repro.MultiObjectiveSequential(bg, 0)
	if useful <= 0 {
		t.Fatal("no labels processed sequentially")
	}
	res, err := repro.SolveMultiObjective(bg, 0, repro.MultiObjectiveOptions{
		Places: 4, Strategy: repro.Hybrid, K: 32, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !res.Fronts[i].Equal(&want[i]) {
			t.Fatalf("front mismatch at node %d", i)
		}
	}
	if res.LabelsProcessed < useful {
		t.Fatalf("processed %d < useful %d", res.LabelsProcessed, useful)
	}
	if _, err := repro.SolveMultiObjective(bg, -1, repro.MultiObjectiveOptions{
		Places: 1, Strategy: repro.Hybrid,
	}); err == nil {
		t.Fatal("invalid source accepted")
	}
}

func TestPublicParetoTypes(t *testing.T) {
	var f repro.ParetoFront
	if !f.Insert(repro.ParetoCost{C1: 2, C2: 2}) {
		t.Fatal("insert failed")
	}
	if f.Insert(repro.ParetoCost{C1: 3, C2: 3}) {
		t.Fatal("dominated point inserted")
	}
	if !(repro.ParetoCost{C1: 1, C2: 1}).Dominates(repro.ParetoCost{C1: 2, C2: 2}) {
		t.Fatal("dominance broken")
	}
}

func TestPublicSchedulerStatsAccessor(t *testing.T) {
	s, err := repro.NewScheduler(repro.SchedulerConfig[int]{
		Places:   2,
		Strategy: repro.WorkStealing,
		Less:     func(a, b int) bool { return a < b },
		Execute:  func(ctx repro.Ctx[int], v int) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Pushes != 3 || st.Pops != 3 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestPublicSolveSSSPRejectsBadSource(t *testing.T) {
	g := repro.ErdosRenyi(20, 0.3, 1)
	for _, src := range []int{-1, 20, 1 << 20} {
		if _, err := repro.SolveSSSP(g, src, repro.SSSPOptions{Places: 2, Strategy: repro.Hybrid, K: 8}); err == nil {
			t.Errorf("source %d accepted on a %d-node graph", src, g.N)
		}
	}
}

func TestPublicRMATGraphSSSP(t *testing.T) {
	// Skewed-degree graphs: every strategy still computes exact distances.
	g := repro.RMATGraph(9, 8, 17)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want, _ := repro.Dijkstra(g, 0)
	for _, strat := range []repro.Strategy{repro.WorkStealing, repro.Hybrid} {
		res, err := repro.SolveSSSP(g, 0, repro.SSSPOptions{
			Places: 4, Strategy: strat, K: 64, Seed: 18,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			a, b := want[i], res.Dist[i]
			if a != b && !(a > 1e308 && b > 1e308) {
				t.Fatalf("%s: RMAT distance mismatch at %d", strat, i)
			}
		}
	}
}

func TestPublicSpinWorkGranularity(t *testing.T) {
	// The GRAN experiment's artificial work hook must not affect results.
	g := repro.GridGraph(12, 12, 13)
	want, _ := repro.Dijkstra(g, 0)
	res, err := repro.SolveSSSP(g, 0, repro.SSSPOptions{
		Places: 4, Strategy: repro.WorkStealing, K: 16, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Dist[i] != want[i] {
			t.Fatal("distance mismatch")
		}
	}
}

// TestPublicBackpressureServe exercises the admission-control surface
// through the public facade: a gated serve session, ErrShed on
// overload, the protected band honored, and BackpressureState
// reporting the threshold.
func TestPublicBackpressureServe(t *testing.T) {
	var executed atomic.Int64
	var slow atomic.Bool
	slow.Store(true)
	s, err := repro.NewScheduler(repro.SchedulerConfig[int64]{
		Places:        2,
		Strategy:      repro.RelaxedSampleTwo,
		Injectors:     2,
		Backpressure:  true,
		Priority:      func(v int64) int64 { return v },
		MaxPrio:       1<<16 - 1,
		ProtectedBand: 1 << 12,
		SojournBudget: 5 * time.Millisecond,
		SpillCap:      64,
		AdaptInterval: 2 * time.Millisecond,
		Less:          func(a, b int64) bool { return a < b },
		Execute: func(ctx repro.Ctx[int64], v int64) {
			executed.Add(1)
			if slow.Load() {
				time.Sleep(20 * time.Microsecond)
			}
		},
		Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.BackpressureState(); !ok {
		t.Fatal("BackpressureState not ok on a backpressure scheduler")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var attempts, sheds int64
	for i := 0; i < 30000; i++ {
		attempts++
		prio := int64(i*7919) % (1 << 16)
		err := s.Submit(prio)
		switch {
		case err == nil:
		case errors.Is(err, repro.ErrShed):
			if prio < 1<<12 {
				t.Fatalf("protected task %d shed", prio)
			}
			sheds++
		default:
			t.Fatal(err)
		}
		if i%2000 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	slow.Store(false)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != attempts-sheds || executed.Load() != attempts-sheds {
		t.Fatalf("executed %d/%d of %d accepted", st.Executed, executed.Load(), attempts-sheds)
	}
	if st.DS.Shed != sheds {
		t.Fatalf("DS.Shed = %d, saw %d ErrShed", st.DS.Shed, sheds)
	}

	// A scheduler without backpressure reports no threshold.
	plain, err := repro.NewScheduler(repro.SchedulerConfig[int64]{
		Places:  1,
		Less:    func(a, b int64) bool { return a < b },
		Execute: func(ctx repro.Ctx[int64], v int64) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.BackpressureState(); ok {
		t.Fatal("BackpressureState ok without backpressure")
	}
}

// TestSchedulerConfigMirrorsSched pins the hand-written field-by-field
// copy in NewScheduler: SchedulerConfig and sched.Config carry the same
// exported field names, so a knob deleted (or added) on one side cannot
// silently survive on the other.
//
// Why the copy is not an alias or an embedding (ROADMAP item 8, not to reopen):
// SchedulerConfig[T] = sched.Config[T] is a generic alias, which needs
// go ≥ 1.24 in go.mod while bench/go.mod pins 1.22 and CI builds with
// 1.23; embedding sched.Config would break the keyed literals that
// bench/serve.go and every example write (promoted fields cannot be
// named in a composite literal); and Execute and Metrics differ in type
// between the two structs (repro.Ctx / *repro.Metrics against *sched.Ctx
// / obs.Sink), so two of the fields must be converted in any case.
// RunStats has none of these obstacles and is an alias.
func TestSchedulerConfigMirrorsSched(t *testing.T) {
	fields := func(typ reflect.Type) map[string]bool {
		names := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				names[f.Name] = true
			}
		}
		return names
	}
	facade := fields(reflect.TypeOf(repro.SchedulerConfig[int]{}))
	inner := fields(reflect.TypeOf(sched.Config[int]{}))
	for name := range inner {
		if !facade[name] {
			t.Errorf("sched.Config.%s has no repro.SchedulerConfig field", name)
		}
	}
	for name := range facade {
		if !inner[name] {
			t.Errorf("repro.SchedulerConfig.%s has no sched.Config field", name)
		}
	}
}

// TestSolveSSSPConcurrentCallers: SolveSSSP shares pooled solvers
// between calls, so callers running at once, with graphs of different
// sizes (a pooled solver too small for a graph is replaced, a larger one
// reused) and different strategies, must each get exactly Dijkstra's
// distances.
func TestSolveSSSPConcurrentCallers(t *testing.T) {
	graphs := []repro.Graph{
		repro.ErdosRenyi(300, 0.05, 1),
		repro.ErdosRenyi(1200, 0.01, 2),
		repro.GridGraph(20, 30, 3),
	}
	want := make([][]float64, len(graphs))
	for i, g := range graphs {
		want[i], _ = repro.Dijkstra(g, 0)
	}
	strategies := []repro.Strategy{repro.Hybrid, repro.Centralized, repro.Relaxed, repro.WorkStealing}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				gi := (w + i) % len(graphs)
				strat := strategies[(w+i/len(graphs))%len(strategies)]
				res, err := repro.SolveSSSP(graphs[gi], 0, repro.SSSPOptions{
					Places: 2, Strategy: strat, K: 64, Seed: uint64(100*w + i),
				})
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Dist) != len(want[gi]) {
					t.Errorf("caller %d call %d (%s): %d distances for %d nodes", w, i, strat, len(res.Dist), len(want[gi]))
					return
				}
				for v, d := range res.Dist {
					if d != want[gi][v] {
						t.Errorf("caller %d call %d (%s, graph %d): dist[%d] = %v, want %v", w, i, strat, gi, v, d, want[gi][v])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
