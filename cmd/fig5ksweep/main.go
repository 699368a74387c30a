// Command fig5ksweep regenerates Figure 5 of the paper: total execution
// time and nodes relaxed of the parallel SSSP for varying relaxation
// parameter k, at a fixed place count, comparing the centralized and
// hybrid k-priority structures (the work-stealing structure is
// k-independent and can be added as a reference line with -strategies).
//
// Defaults are the paper's: 20 Erdős–Rényi graphs, n = 10000, p = 0.5,
// P = 80, k ∈ {0, 1, 2, 4, ..., 32768}.
//
// Usage:
//
//	fig5ksweep [-n 10000] [-p 0.5] [-graphs 20] [-places 80]
//	           [-ks 0,1,2,4,...] [-strategies centralized,hybrid]
//	           [-seed 20140215]
//
// -strategies takes the names sched.ParseStrategy accepts; -h lists them.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"repro/internal/harness"
	"repro/internal/sched"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fig5ksweep: ")
	var (
		n      = flag.Int("n", 10000, "nodes per graph")
		p      = flag.Float64("p", 0.5, "edge probability")
		graphs = flag.Int("graphs", 20, "number of random graphs")
		places = flag.Int("places", 80, "places P")
		ks     = flag.String("ks", "", "comma-separated k values (default the paper's 0,1,2,...,32768)")
		strats = flag.String("strategies", "centralized,hybrid", fmt.Sprintf("strategies to sweep, a comma list of %v", sched.Strategies()))
		seed   = flag.Uint64("seed", 20140215, "base random seed")
	)
	flag.Parse()

	cfg := harness.DefaultFig5()
	cfg.Common = harness.Common{N: *n, EdgeP: *p, Graphs: *graphs, Seed: *seed}
	cfg.Places = *places
	var err error
	if *ks != "" {
		if cfg.Ks, err = harness.ParseList(*ks, strconv.Atoi); err != nil {
			log.Fatalf("bad -ks: %v", err)
		}
	}
	if cfg.Strategies, err = sched.ParseStrategies(*strats); err != nil {
		log.Fatalf("-strategies: %v", err)
	}

	fmt.Printf("# Figure 5 k-sweep: n=%d p=%.2f graphs=%d P=%d ks=%v\n\n",
		*n, *p, *graphs, *places, cfg.Ks)
	points, err := harness.Fig5(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := harness.PrintSSSPPoints(os.Stdout, "k", points); err != nil {
		log.Fatal(err)
	}
}
