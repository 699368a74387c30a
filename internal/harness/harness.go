// Package harness drives the experiments that regenerate the paper's
// evaluation figures (§5.4–§5.5). Each figure has a config struct, a
// compute function returning structured series, and a printer that
// renders the same rows the paper plots. The cmd/ binaries parse flags
// into these configs; the repository-level benchmarks call the compute
// functions at reduced scale.
//
// Defaults follow the paper: 20 Erdős–Rényi graphs with n = 10000 nodes,
// edge probability 50%, uniform ]0,1] weights, k = 512, P = 80, source
// node 0 of each graph, and means reported across graphs.
package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sssp"
	"repro/internal/stats"
	"repro/internal/theory"
)

// Common holds the workload parameters shared by all figures.
type Common struct {
	N      int     // nodes per graph (paper: 10000)
	EdgeP  float64 // edge probability (paper: 0.5)
	Graphs int     // number of random graphs (paper: 20)
	Seed   uint64  // base seed; graph i uses Seed+i
}

// DefaultCommon returns the paper's workload configuration.
func DefaultCommon() Common {
	return Common{N: 10000, EdgeP: 0.5, Graphs: 20, Seed: 20140215}
}

func (c Common) graph(i int) *graph.Graph {
	return graph.ErdosRenyi(c.N, c.EdgeP, c.Seed+uint64(i))
}

// ---------------------------------------------------------------------------
// Figure 3: simulation (settled per phase, h*_t per phase, theory vs sim)
// ---------------------------------------------------------------------------

// Fig3Config parameterizes the simulation experiment.
type Fig3Config struct {
	Common Common
	Places int   // the paper's P = 80
	Rhos   []int // the paper's ρ ∈ {0, 128, 512}
	Theory bool  // also evaluate the Theorem 5 bound (right panel, ρ = 0)
}

// DefaultFig3 returns the paper's Figure 3 configuration.
func DefaultFig3() Fig3Config {
	return Fig3Config{Common: DefaultCommon(), Places: 80, Rhos: []int{0, 128, 512}, Theory: true}
}

// Fig3Result holds per-phase series, averaged over graphs (phases beyond a
// graph's run length simply do not contribute).
type Fig3Result struct {
	Rhos      []int
	Settled   [][]float64 // [rhoIdx][phase] mean settled nodes
	HStar     [][]float64 // [rhoIdx][phase] mean h*_t
	SimRho0   []float64   // [phase] mean settled at ρ=0 (right panel)
	Bound     []float64   // [phase] mean theoretical lower bound (right panel)
	TotalRlx  []float64   // [rhoIdx] mean total relaxed nodes
	TotalStld []float64   // [rhoIdx] mean total settled nodes
}

// Fig3 runs the simulation experiment.
func Fig3(cfg Fig3Config) (Fig3Result, error) {
	res := Fig3Result{
		Rhos:      cfg.Rhos,
		Settled:   make([][]float64, len(cfg.Rhos)),
		HStar:     make([][]float64, len(cfg.Rhos)),
		TotalRlx:  make([]float64, len(cfg.Rhos)),
		TotalStld: make([]float64, len(cfg.Rhos)),
	}
	type acc struct {
		sum []float64
		cnt []int
	}
	add := func(a *acc, phase int, v float64) {
		for len(a.sum) <= phase {
			a.sum = append(a.sum, 0)
			a.cnt = append(a.cnt, 0)
		}
		a.sum[phase] += v
		a.cnt[phase]++
	}
	mean := func(a *acc) []float64 {
		out := make([]float64, len(a.sum))
		for i := range a.sum {
			if a.cnt[i] > 0 {
				out[i] = a.sum[i] / float64(a.cnt[i])
			}
		}
		return out
	}

	var boundAcc, simRho0Acc acc
	for ri, rho := range cfg.Rhos {
		var settledAcc, hstarAcc acc
		var totalR, totalS stats.Sample
		for gi := 0; gi < cfg.Common.Graphs; gi++ {
			g := cfg.Common.graph(gi)
			r, err := sim.Run(g, 0, sim.Config{P: cfg.Places, Rho: rho, Seed: cfg.Common.Seed + uint64(1000+gi)})
			if err != nil {
				return Fig3Result{}, err
			}
			for ph, p := range r.Phases {
				add(&settledAcc, ph, float64(p.Settled))
				add(&hstarAcc, ph, p.HStar)
				if rho == 0 {
					add(&simRho0Acc, ph, float64(p.Settled))
					if cfg.Theory {
						add(&boundAcc, ph, theory.SettledLowerBound(g.N, cfg.Common.EdgeP, p.Dists))
					}
				}
			}
			totalR.Add(float64(r.TotalRelaxed))
			totalS.Add(float64(r.TotalSettled))
		}
		res.Settled[ri] = mean(&settledAcc)
		res.HStar[ri] = mean(&hstarAcc)
		res.TotalRlx[ri] = totalR.Mean()
		res.TotalStld[ri] = totalS.Mean()
	}
	res.SimRho0 = mean(&simRho0Acc)
	if cfg.Theory {
		res.Bound = mean(&boundAcc)
	}
	return res, nil
}

// Print renders the three panels as aligned tables.
func (r Fig3Result) Print(w io.Writer) error {
	phases := 0
	for _, s := range r.Settled {
		if len(s) > phases {
			phases = len(s)
		}
	}
	left := stats.Table{Header: []string{"phase"}}
	mid := stats.Table{Header: []string{"phase"}}
	for _, rho := range r.Rhos {
		left.Header = append(left.Header, fmt.Sprintf("settled(rho=%d)", rho))
		mid.Header = append(mid.Header, fmt.Sprintf("hstar(rho=%d)", rho))
	}
	cell := func(s []float64, ph int, prec int) string {
		if ph < len(s) {
			return stats.F(s[ph], prec)
		}
		return ""
	}
	for ph := 0; ph < phases; ph++ {
		lrow := []string{stats.I(int64(ph))}
		mrow := []string{stats.I(int64(ph))}
		for ri := range r.Rhos {
			lrow = append(lrow, cell(r.Settled[ri], ph, 2))
			mrow = append(mrow, cell(r.HStar[ri], ph, 5))
		}
		left.AddRow(lrow...)
		mid.AddRow(mrow...)
	}
	fmt.Fprintln(w, "Figure 3 (left): nodes settled per phase")
	if err := left.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nFigure 3 (middle): h*_t per phase")
	if err := mid.Fprint(w); err != nil {
		return err
	}
	if r.Bound != nil {
		right := stats.Table{Header: []string{"phase", "lower_bound", "simulation"}}
		for ph := 0; ph < len(r.SimRho0); ph++ {
			right.AddRow(stats.I(int64(ph)), cell(r.Bound, ph, 2), cell(r.SimRho0, ph, 2))
		}
		fmt.Fprintln(w, "\nFigure 3 (right): theoretical lower bound vs simulation (rho=0)")
		if err := right.Fprint(w); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "\nTotals (mean over graphs):")
	tot := stats.Table{Header: []string{"rho", "relaxed", "settled"}}
	for ri, rho := range r.Rhos {
		tot.AddRow(stats.I(int64(rho)), stats.F(r.TotalRlx[ri], 1), stats.F(r.TotalStld[ri], 1))
	}
	return tot.Fprint(w)
}

// ---------------------------------------------------------------------------
// Figures 4 and 5: hardware experiments (time and nodes relaxed)
// ---------------------------------------------------------------------------

// SSSPPoint is one measured configuration, averaged over graphs.
type SSSPPoint struct {
	Label       string  // series name: "sequential" or the strategy's String
	X           int     // the swept parameter (P for Fig. 4, k for Fig. 5)
	TimeMean    float64 // seconds
	TimeStd     float64
	RelaxedMean float64 // nodes relaxed
	RelaxedStd  float64
	Verified    bool // distances matched Dijkstra on every graph
}

// cell is one configuration of an SSSP sweep: the series and x it is
// reported under and the solver options it runs with.
type cell struct {
	label string
	x     int
	opts  sssp.Options // Seed is set per graph
}

// sweep is the one experiment body behind Figures 4 and 5 and the
// granularity table: it solves every cell on every graph of c, in cell
// order, checks every solve against sequential Dijkstra, and returns
// one point per cell (means over graphs) plus the Dijkstra reference
// itself as the "sequential" point.
func sweep(c Common, cells []cell) (seq SSSPPoint, points []SSSPPoint, err error) {
	var seqTime, seqRelaxed stats.Sample
	times := make([]stats.Sample, len(cells))
	relaxed := make([]stats.Sample, len(cells))
	wrong := make([]bool, len(cells))
	for gi := 0; gi < c.Graphs; gi++ {
		g := c.graph(gi)
		t0 := time.Now()
		want, reachable := sssp.Dijkstra(g, 0)
		seqTime.Add(time.Since(t0).Seconds())
		seqRelaxed.Add(float64(reachable))
		for i, cl := range cells {
			cl.opts.Seed = c.Seed + uint64(gi)
			res, err := sssp.Parallel(g, 0, cl.opts)
			if err != nil {
				return SSSPPoint{}, nil, err
			}
			times[i].Add(res.Elapsed.Seconds())
			relaxed[i].Add(float64(res.NodesRelaxed))
			if !sssp.Equal(res.Dist, want, 1e-9) {
				wrong[i] = true
			}
		}
	}
	point := func(label string, x int, t, r *stats.Sample, ok bool) SSSPPoint {
		return SSSPPoint{Label: label, X: x, TimeMean: t.Mean(), TimeStd: t.Std(),
			RelaxedMean: r.Mean(), RelaxedStd: r.Std(), Verified: ok}
	}
	for i, cl := range cells {
		points = append(points, point(cl.label, cl.x, &times[i], &relaxed[i], !wrong[i]))
	}
	return point("sequential", 1, &seqTime, &seqRelaxed, true), points, nil
}

// Fig4Config parameterizes the strong-scaling experiment (Figure 4).
type Fig4Config struct {
	Common     Common
	PlacesList []int // the paper's {1, 2, 3, 5, 10, 20, 40, 80}
	K          int   // the paper's 512
	Strategies []sched.Strategy
	Sequential bool // include the sequential Dijkstra series (1 thread)
}

// DefaultFig4 returns the paper's Figure 4 configuration.
func DefaultFig4() Fig4Config {
	return Fig4Config{
		Common:     DefaultCommon(),
		PlacesList: []int{1, 2, 3, 5, 10, 20, 40, 80},
		K:          512,
		Strategies: []sched.Strategy{sched.WorkStealing, sched.Centralized, sched.Hybrid},
		Sequential: true,
	}
}

// Fig4 runs the strong-scaling experiment. The X of each point is P.
func Fig4(cfg Fig4Config) ([]SSSPPoint, error) {
	var cells []cell
	for _, strat := range cfg.Strategies {
		for _, places := range cfg.PlacesList {
			cells = append(cells, cell{strat.String(), places,
				sssp.Options{Places: places, Strategy: strat, K: cfg.K}})
		}
	}
	seq, points, err := sweep(cfg.Common, cells)
	if err != nil {
		return nil, err
	}
	if cfg.Sequential {
		points = append([]SSSPPoint{seq}, points...)
	}
	return points, nil
}

// Fig5Config parameterizes the k-sweep experiment (Figure 5).
type Fig5Config struct {
	Common     Common
	Places     int   // the paper's 80
	Ks         []int // the paper's {0, 1, 2, 4, ..., 32768}
	Strategies []sched.Strategy
}

// DefaultFig5 returns the paper's Figure 5 configuration.
func DefaultFig5() Fig5Config {
	ks := []int{0}
	for k := 1; k <= 32768; k *= 2 {
		ks = append(ks, k)
	}
	return Fig5Config{
		Common:     DefaultCommon(),
		Places:     80,
		Ks:         ks,
		Strategies: []sched.Strategy{sched.Centralized, sched.Hybrid},
	}
}

// Fig5 runs the k-sweep experiment. The X of each point is k.
func Fig5(cfg Fig5Config) ([]SSSPPoint, error) {
	var cells []cell
	for _, strat := range cfg.Strategies {
		for _, k := range cfg.Ks {
			cells = append(cells, cell{strat.String(), k, sssp.Options{
				Places: cfg.Places, Strategy: strat, K: k,
				KMax: max(512, k), // let the sweep exceed the paper's kmax
			}})
		}
	}
	_, points, err := sweep(cfg.Common, cells)
	return points, err
}

// PrintSSSPPoints renders Figure 4/5 style series: one table for total
// execution time, one for nodes relaxed. After printing it reports any
// point that did not match Dijkstra as an error.
func PrintSSSPPoints(w io.Writer, xName string, points []SSSPPoint) error {
	tt := stats.Table{Header: []string{"series", xName, "time_s", "time_std", "verified"}}
	rt := stats.Table{Header: []string{"series", xName, "nodes_relaxed", "relaxed_std"}}
	bad := 0
	for _, p := range points {
		tt.AddRow(p.Label, stats.I(int64(p.X)), stats.F(p.TimeMean, 4), stats.F(p.TimeStd, 4),
			fmt.Sprintf("%v", p.Verified))
		rt.AddRow(p.Label, stats.I(int64(p.X)), stats.F(p.RelaxedMean, 1), stats.F(p.RelaxedStd, 1))
		if !p.Verified {
			bad++
		}
	}
	fmt.Fprintln(w, "Total execution time:")
	if err := tt.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nNodes relaxed:")
	if err := rt.Fprint(w); err != nil {
		return err
	}
	return unverified(bad, len(points))
}

// unverified is the error the printers return, after the table, when
// bad of n rows did not match sequential Dijkstra — so the figure
// commands exit non-zero on a wrong distance.
func unverified(bad, n int) error {
	if bad == 0 {
		return nil
	}
	return fmt.Errorf("harness: %d of %d rows did not match sequential Dijkstra", bad, n)
}

// ParseList parses a comma-separated flag value, applying parse to
// every field with the spaces around it trimmed.
func ParseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
