package repro

import (
	"io"
	"time"

	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/sim"
	"repro/internal/sssp"
	"repro/internal/theory"
)

// Graph is a weighted undirected graph in CSR form (see the embedded
// fields/methods: N, M(), Degree, Neighbors, Validate).
type Graph struct {
	*graph.Graph
}

// ErdosRenyi generates G(n, p) with edge weights uniform in ]0, 1],
// deterministically from seed (§5.2.1's random graph model).
func ErdosRenyi(n int, p float64, seed uint64) Graph {
	return Graph{graph.ErdosRenyi(n, p, seed)}
}

// GridGraph generates a rows×cols 4-neighbour grid with uniform weights.
func GridGraph(rows, cols int, seed uint64) Graph {
	return Graph{graph.Grid(rows, cols, seed)}
}

// RMATGraph generates a power-law (Graph500-style R-MAT) graph with 2^scale
// nodes and about edgeFactor edges per node, uniform ]0, 1] weights. Hubs
// stress the schedulers with bursty task creation.
func RMATGraph(scale, edgeFactor int, seed uint64) Graph {
	return Graph{graph.RMAT(scale, edgeFactor, 0, 0, 0, seed)}
}

// GraphFromEdges builds a graph from an undirected edge list of
// {u, v, weight} triples.
func GraphFromEdges(n int, edges [][3]float64) Graph {
	return Graph{graph.FromEdges(n, edges)}
}

// WriteGraph writes g in DIMACS shortest-path (.gr) format.
func WriteGraph(w io.Writer, g Graph) error {
	return graphio.WriteGr(w, g.Graph)
}

// ReadGraph parses a DIMACS shortest-path (.gr) file; arcs must form a
// symmetric undirected graph.
func ReadGraph(r io.Reader) (Graph, error) {
	g, err := graphio.ReadGr(r)
	if err != nil {
		return Graph{}, err
	}
	return Graph{g}, nil
}

// Dijkstra computes exact shortest path distances from src and the number
// of node relaxations (equal to the number of reachable nodes).
func Dijkstra(g Graph, src int) ([]float64, int64) {
	return sssp.Dijkstra(g.Graph, src)
}

// DeltaStepping computes shortest paths with sequential Δ-stepping
// (Meyer & Sanders), returning distances and node relaxations.
func DeltaStepping(g Graph, src int, delta float64) ([]float64, int64) {
	return sssp.DeltaStepping(g.Graph, src, delta)
}

// SSSPOptions configures a parallel shortest-path run (§5.1's application:
// one task per pending node relaxation, prioritized by tentative
// distance). The solver supplies the scheduler's numeric Priority
// itself — the bit pattern of the non-negative distance, which orders
// exactly like the distance — so every strategy runs on keyed queues
// or lanes without a field here.
type SSSPOptions struct {
	// Places is the number of workers (the paper's P).
	Places int
	// Strategy selects the scheduling data structure.
	Strategy Strategy
	// K is the relaxation parameter (paper: 512); the centralized
	// structure's kmax is 512, or K when K is larger.
	K int
	// Seed drives scheduling randomness.
	Seed uint64
}

// SSSPResult reports a parallel shortest-path run.
type SSSPResult struct {
	// Dist is the exact distance vector.
	Dist []float64
	// NodesRelaxed is the paper's work metric: executed node relaxations
	// (useful + useless); the sequential optimum is the reachable count.
	NodesRelaxed int64
	// Elapsed is the wall-clock time of the scheduled computation.
	Elapsed time.Duration
	// Executed, Eliminated and Spawned are the scheduler's task counts.
	Executed, Eliminated, Spawned int64
}

// SolveSSSP runs the parallel shortest-path computation on g from src.
// A src outside [0, g.N) is an error.
func SolveSSSP(g Graph, src int, opt SSSPOptions) (SSSPResult, error) {
	res, err := sssp.Parallel(g.Graph, src, sssp.Options{
		Places:   opt.Places,
		Strategy: opt.Strategy,
		K:        opt.K,
		Seed:     opt.Seed,
	})
	if err != nil {
		return SSSPResult{}, err
	}
	return SSSPResult{
		Dist:         res.Dist,
		NodesRelaxed: res.NodesRelaxed,
		Elapsed:      res.Elapsed,
		Executed:     res.Sched.Executed,
		Eliminated:   res.Sched.Eliminated,
		Spawned:      res.Sched.Spawned,
	}, nil
}

// SimConfig configures the phase-wise execution simulator (§5.4).
type SimConfig struct {
	// P is the number of nodes relaxed per phase.
	P int
	// Rho hides the ρ newest active nodes from the ideal priority order
	// (0 simulates an ideal priority queue).
	Rho int
	// Seed drives the shuffles.
	Seed uint64
}

// SimPhase is one simulated phase.
type SimPhase struct {
	Relaxed int       // nodes relaxed (≤ P)
	Settled int       // relaxed nodes whose distance was final (useful work)
	HStar   float64   // spread of relaxed tentative distances (Fig. 3 middle)
	Dists   []float64 // sorted tentative distances of the relaxed nodes
}

// SimResult is a full simulation run.
type SimResult struct {
	Phases       []SimPhase
	TotalRelaxed int
	TotalSettled int
}

// Simulate runs the phase-wise model on g from src.
func Simulate(g Graph, src int, cfg SimConfig) (SimResult, error) {
	r, err := sim.Run(g.Graph, src, sim.Config{P: cfg.P, Rho: cfg.Rho, Seed: cfg.Seed})
	if err != nil {
		return SimResult{}, err
	}
	out := SimResult{TotalRelaxed: r.TotalRelaxed, TotalSettled: r.TotalSettled}
	for _, p := range r.Phases {
		out.Phases = append(out.Phases, SimPhase{
			Relaxed: p.Relaxed, Settled: p.Settled, HStar: p.HStar, Dists: p.Dists,
		})
	}
	return out, nil
}

// UselessWorkBound evaluates Theorem 5 for one phase: an upper bound on
// the expected number of relaxed-but-unsettled nodes, given the sorted
// tentative distances of the relaxed nodes, on G(n, p).
func UselessWorkBound(n int, p float64, dists []float64) float64 {
	return theory.UselessWorkBound(n, p, dists)
}

// SettledLowerBound is the companion lower bound on settled nodes per
// phase (Figure 3, right).
func SettledLowerBound(n int, p float64, dists []float64) float64 {
	return theory.SettledLowerBound(n, p, dists)
}
