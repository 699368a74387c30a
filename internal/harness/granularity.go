package harness

import (
	"fmt"
	"io"

	"repro/internal/sched"
	"repro/internal/sssp"
	"repro/internal/stats"
)

// GranConfig parameterizes the task-granularity experiment (GRAN in the
// experiment index of the root bench_test.go). Section 5.5 observes that "the minimum k required to match
// work-stealing performance in the hybrid data structure is dependent on
// task granularity: the more fine-grained tasks are, the higher the
// minimum required k". The experiment measures, for several artificial
// per-task work sizes, the hybrid/work-stealing time ratio across k.
type GranConfig struct {
	Common Common
	Places int
	Ks     []int
	// SpinWorks are the artificial per-relaxation work sizes (units of a
	// small arithmetic loop; 0 = the natural fine granularity).
	SpinWorks []int
}

// GranPoint is one measured (granularity, k) cell.
type GranPoint struct {
	SpinWork  int
	K         int
	WSTime    float64 // work-stealing reference (k-independent), seconds
	HybTime   float64 // hybrid at this k, seconds
	Ratio     float64 // HybTime / WSTime; ≤ 1 means hybrid matches WS
	HybWasted float64 // hybrid nodes relaxed − n
	Verified  bool    // both runs matched Dijkstra on every graph
}

// Gran runs the granularity experiment.
func Gran(cfg GranConfig) ([]GranPoint, error) {
	// Per spin: the work-stealing reference cell, then one hybrid cell
	// per k.
	var cells []cell
	for _, spin := range cfg.SpinWorks {
		cells = append(cells, cell{"work-stealing", 512, sssp.Options{
			Places: cfg.Places, Strategy: sched.WorkStealing, K: 512, SpinWork: spin,
		}})
		for _, k := range cfg.Ks {
			cells = append(cells, cell{"hybrid", k, sssp.Options{
				Places: cfg.Places, Strategy: sched.Hybrid, K: k, SpinWork: spin,
			}})
		}
	}
	_, points, err := sweep(cfg.Common, cells)
	if err != nil {
		return nil, err
	}
	var out []GranPoint
	for si, spin := range cfg.SpinWorks {
		row := points[si*(1+len(cfg.Ks)):]
		ws := row[0]
		for _, hyb := range row[1 : 1+len(cfg.Ks)] {
			out = append(out, GranPoint{
				SpinWork:  spin,
				K:         hyb.X,
				WSTime:    ws.TimeMean,
				HybTime:   hyb.TimeMean,
				Ratio:     hyb.TimeMean / ws.TimeMean,
				HybWasted: hyb.RelaxedMean - float64(cfg.Common.N),
				Verified:  ws.Verified && hyb.Verified,
			})
		}
	}
	return out, nil
}

// PrintGran renders the granularity table. After printing it reports
// any cell that did not match Dijkstra as an error.
func PrintGran(w io.Writer, points []GranPoint) error {
	t := stats.Table{Header: []string{
		"spin_work", "k", "ws_time_s", "hybrid_time_s", "hybrid/ws", "hybrid_wasted", "verified",
	}}
	bad := 0
	for _, p := range points {
		t.AddRow(stats.I(int64(p.SpinWork)), stats.I(int64(p.K)),
			stats.F(p.WSTime, 4), stats.F(p.HybTime, 4),
			stats.F(p.Ratio, 3), stats.F(p.HybWasted, 1), fmt.Sprintf("%v", p.Verified))
		if !p.Verified {
			bad++
		}
	}
	fmt.Fprintln(w, "Granularity sweep (hybrid/ws <= 1 means hybrid matches work-stealing):")
	if err := t.Fprint(w); err != nil {
		return err
	}
	return unverified(bad, len(points))
}
