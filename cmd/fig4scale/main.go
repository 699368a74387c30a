// Command fig4scale regenerates Figure 4 of the paper: total execution
// time and nodes relaxed of the parallel SSSP for varying place counts P,
// comparing sequential Dijkstra, priority work-stealing, the centralized
// k-priority structure and the hybrid k-priority structure (k = 512).
//
// Defaults are the paper's: 20 Erdős–Rényi graphs, n = 10000, p = 0.5,
// P ∈ {1, 2, 3, 5, 10, 20, 40, 80}. Note that the paper's machine has 80
// cores; on smaller machines the high-P points run oversubscribed, which
// preserves the relative comparison between strategies at equal P but not
// absolute scaling.
//
// Usage:
//
//	fig4scale [-n 10000] [-p 0.5] [-graphs 20] [-k 512]
//	          [-places 1,2,3,5,10,20,40,80]
//	          [-strategies work-stealing,centralized,hybrid]
//	          [-sequential] [-seed 20140215]
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
	log.SetPrefix("fig4scale: ")
	var (
		n      = flag.Int("n", 10000, "nodes per graph")
		p      = flag.Float64("p", 0.5, "edge probability")
		graphs = flag.Int("graphs", 20, "number of random graphs")
		k      = flag.Int("k", 512, "relaxation parameter")
		places = flag.String("places", "1,2,3,5,10,20,40,80", "place counts to sweep")
		strats = flag.String("strategies", "work-stealing,centralized,hybrid", fmt.Sprintf("strategies to compare, a comma list of %v", sched.Strategies()))
		seq    = flag.Bool("sequential", true, "include sequential Dijkstra (one thread)")
		seed   = flag.Uint64("seed", 20140215, "base random seed")
	)
	flag.Parse()

	placeList, err := harness.ParseList(*places, strconv.Atoi)
	if err != nil {
		log.Fatalf("bad -places: %v", err)
	}
	stratList, err := sched.ParseStrategies(*strats)
	if err != nil {
		log.Fatal(err)
	}
	cfg := harness.Fig4Config{
		Common:     harness.Common{N: *n, EdgeP: *p, Graphs: *graphs, Seed: *seed},
		PlacesList: placeList,
		K:          *k,
		Strategies: stratList,
		Sequential: *seq,
	}
	fmt.Printf("# Figure 4 scaling: n=%d p=%.2f graphs=%d k=%d places=%v\n\n",
		*n, *p, *graphs, *k, placeList)
	points, err := harness.Fig4(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := harness.PrintSSSPPoints(os.Stdout, "P", points); err != nil {
		log.Fatal(err)
	}
}
