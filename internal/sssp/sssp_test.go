package sssp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/xrand"
)

func pathGraph() *graph.Graph {
	// 0 -1- 1 -2- 2 -3- 3, plus shortcut 0-3 of weight 10.
	return graph.FromEdges(4, [][3]float64{
		{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {0, 3, 10},
	})
}

func TestDijkstraKnown(t *testing.T) {
	g := pathGraph()
	dist, relaxed := Dijkstra(g, 0)
	want := []float64{0, 1, 3, 6}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist[%d] = %v, want %v", i, dist[i], want[i])
		}
	}
	if relaxed != 4 {
		t.Fatalf("relaxed %d nodes, want 4", relaxed)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := graph.FromEdges(3, [][3]float64{{0, 1, 1}})
	dist, relaxed := Dijkstra(g, 0)
	if !math.IsInf(dist[2], 1) {
		t.Fatalf("dist[2] = %v, want +Inf", dist[2])
	}
	if relaxed != 2 {
		t.Fatalf("relaxed = %d, want 2", relaxed)
	}
}

func TestDijkstraSingleNode(t *testing.T) {
	g := graph.FromEdges(1, nil)
	dist, relaxed := Dijkstra(g, 0)
	if dist[0] != 0 || relaxed != 1 {
		t.Fatalf("dist=%v relaxed=%d", dist, relaxed)
	}
}

var parallelStrategies = []sched.Strategy{
	sched.WorkStealing, sched.Centralized, sched.Hybrid, sched.Relaxed,
	sched.WorkStealingStealOne, sched.HybridNoSpy, sched.GlobalHeap,
	sched.RelaxedSampleTwo,
}

// TestParallelMatchesDijkstraAllStrategies: the solver hands every
// strategy its numeric projection of the distance, so each one — keyed
// local queues, keyed lanes, or Less alone — must still produce exactly
// Dijkstra's distances, on a uniform, a long-diameter and a hub-heavy
// graph.
func TestParallelMatchesDijkstraAllStrategies(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"er":   graph.ErdosRenyi(300, 0.1, 11),
		"grid": graph.Grid(15, 20, 5),
		"rmat": graph.RMAT(8, 8, 0, 0, 0, 7),
	}
	for _, strat := range parallelStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			t.Parallel()
			for name, g := range graphs {
				want, reachable := Dijkstra(g, 0)
				for _, places := range []int{1, 2, 4} {
					res, err := Parallel(g, 0, Options{
						Places: places, Strategy: strat, K: 64, Seed: 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !Equal(res.Dist, want, 0) {
						t.Fatalf("%s places=%d: distance vector differs from Dijkstra", name, places)
					}
					if res.NodesRelaxed < reachable {
						t.Fatalf("%s places=%d: relaxed %d < %d reachable; missed nodes", name, places, res.NodesRelaxed, reachable)
					}
				}
			}
		})
	}
}

// TestDistKeyPreservesOrder: the key the queues sort by must order
// non-negative distances exactly as < does, ties included, from zero
// through the subnormals to +Inf.
func TestDistKeyPreservesOrder(t *testing.T) {
	key := func(d float64) int64 { return distKey(NodeTask{Dist: d}) }
	fixed := []float64{0, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1, math.Nextafter(1, 2), math.MaxFloat64, Inf}
	for i, a := range fixed {
		if key(a) < 0 {
			t.Fatalf("key(%v) = %d is negative", a, key(a))
		}
		if i > 0 && key(fixed[i-1]) >= key(a) {
			t.Fatalf("key(%v) = %d not below key(%v) = %d", fixed[i-1], key(fixed[i-1]), a, key(a))
		}
	}
	f := func(x, y float64) bool {
		a, b := math.Abs(x), math.Abs(y)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return (a < b) == (key(a) < key(b)) && (a == b) == (key(a) == key(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveRejectsBadInput: the graph and the source are caller input,
// so a graph larger than the solver or a source outside it is an error,
// not an index panic, and the solver stays usable afterwards.
func TestSolveRejectsBadInput(t *testing.T) {
	small, big := graph.ErdosRenyi(50, 0.2, 1), graph.ErdosRenyi(51, 0.2, 1)
	sv, err := NewSolver(small.N, Options{Places: 2, Strategy: sched.Hybrid, K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		src  int
		want string
	}{
		{"graph larger than solver", big, 0, "sssp: graph has 51 nodes, solver built for 50"},
		{"negative source", small, -1, "sssp: source -1 out of range [0, 50)"},
		{"source past the last node", small, 50, "sssp: source 50 out of range [0, 50)"},
		{"source past a smaller graph", graph.ErdosRenyi(10, 0.5, 1), 10, "sssp: source 10 out of range [0, 10)"},
	} {
		if _, err := sv.Solve(c.g, c.src); err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	want, _ := Dijkstra(small, 49)
	res, err := sv.Solve(small, 49)
	if err != nil || !Equal(res.Dist, want, 0) {
		t.Fatalf("solve after rejected inputs: err = %v", err)
	}
}

func TestParallelRandomGraphsProperty(t *testing.T) {
	// Randomized equivalence over many shapes, seeds and k values.
	r := xrand.New(99)
	iters := 25
	if testing.Short() {
		iters = 8
	}
	for it := 0; it < iters; it++ {
		n := 20 + r.Intn(150)
		p := 0.02 + r.Float64()*0.4
		g := graph.ErdosRenyi(n, p, r.Uint64())
		src := r.Intn(n)
		want, _ := Dijkstra(g, src)
		strat := parallelStrategies[it%len(parallelStrategies)]
		k := []int{0, 1, 8, 512}[it%4]
		res, err := Parallel(g, src, Options{
			Places: 1 + r.Intn(6), Strategy: strat, K: k, Seed: r.Uint64(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(res.Dist, want, 1e-12) {
			t.Fatalf("iter %d (%s, k=%d, n=%d, p=%.2f): mismatch", it, strat, k, n, p)
		}
	}
}

func TestParallelGrid(t *testing.T) {
	g := graph.Grid(20, 30, 5)
	want, _ := Dijkstra(g, 0)
	res, err := Parallel(g, 0, Options{Places: 4, Strategy: sched.Hybrid, K: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(res.Dist, want, 1e-12) {
		t.Fatal("grid mismatch")
	}
}

func TestSolverReuse(t *testing.T) {
	g := graph.ErdosRenyi(200, 0.2, 3)
	sv, err := NewSolver(g.N, Options{Places: 3, Strategy: sched.Centralized, K: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 3; src++ {
		want, _ := Dijkstra(g, src)
		res, err := sv.Solve(g, src)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(res.Dist, want, 1e-12) {
			t.Fatalf("src=%d mismatch", src)
		}
	}
}

func TestUselessWorkAccounting(t *testing.T) {
	// relaxed >= n always; executed + eliminated == spawned.
	g := graph.ErdosRenyi(400, 0.3, 6)
	res, err := Parallel(g, 0, Options{Places: 8, Strategy: sched.Hybrid, K: 512, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesRelaxed < int64(g.N) {
		t.Fatalf("relaxed %d < n=%d", res.NodesRelaxed, g.N)
	}
	st := res.Sched
	if st.Executed+st.Eliminated != st.Spawned {
		t.Fatalf("executed %d + eliminated %d != spawned %d",
			st.Executed, st.Eliminated, st.Spawned)
	}
	if res.NodesRelaxed > st.Executed {
		t.Fatalf("relaxed %d > executed %d", res.NodesRelaxed, st.Executed)
	}
}

func TestDeltaSteppingMatchesDijkstra(t *testing.T) {
	r := xrand.New(13)
	for it := 0; it < 20; it++ {
		n := 20 + r.Intn(200)
		p := 0.02 + r.Float64()*0.4
		g := graph.ErdosRenyi(n, p, r.Uint64())
		src := r.Intn(n)
		want, _ := Dijkstra(g, src)
		for _, delta := range []float64{0.05, 0.2, 1.0} {
			got, relaxed := DeltaStepping(g, src, delta)
			if !Equal(got, want, 1e-12) {
				t.Fatalf("iter %d delta=%v: mismatch", it, delta)
			}
			if relaxed < 0 {
				t.Fatal("negative relaxation count")
			}
		}
	}
}

func TestDeltaSteppingDefaultsDelta(t *testing.T) {
	g := pathGraph()
	want, _ := Dijkstra(g, 0)
	got, _ := DeltaStepping(g, 0, 0) // delta <= 0 falls back to default
	if !Equal(got, want, 1e-12) {
		t.Fatal("default-delta mismatch")
	}
}

func TestEqual(t *testing.T) {
	inf := math.Inf(1)
	if !Equal([]float64{1, inf}, []float64{1, inf}, 0) {
		t.Fatal("identical vectors reported unequal")
	}
	if Equal([]float64{1}, []float64{1, 2}, 0) {
		t.Fatal("length mismatch reported equal")
	}
	if Equal([]float64{1}, []float64{1.1}, 0.01) {
		t.Fatal("out-of-eps reported equal")
	}
	if !Equal([]float64{1}, []float64{1.0000001}, 1e-3) {
		t.Fatal("in-eps reported unequal")
	}
	if Equal([]float64{inf}, []float64{1}, 1e9) {
		t.Fatal("inf vs finite reported equal")
	}
}

func BenchmarkDijkstra(b *testing.B) {
	g := graph.ErdosRenyi(1000, 0.5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, 0)
	}
}

func BenchmarkParallelHybrid(b *testing.B) {
	g := graph.ErdosRenyi(1000, 0.5, 1)
	sv, err := NewSolver(g.N, Options{Places: 8, Strategy: sched.Hybrid, K: 512, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.Solve(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}
