// Command granularity reproduces the task-granularity observation of
// Section 5.5: the minimum k at which the hybrid k-priority structure
// matches work-stealing performance rises as tasks get more fine-grained.
// Artificial per-relaxation work (a small arithmetic spin) coarsens the
// tasks; the output reports the hybrid/work-stealing time ratio per
// (granularity, k) cell.
//
// Usage:
//
//	granularity [-n 10000] [-p 0.5] [-graphs 5] [-places 16]
//	            [-ks 8,64,512,4096,32768] [-spins 0,64,512]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"repro/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("granularity: ")
	var (
		n      = flag.Int("n", 10000, "nodes per graph")
		p      = flag.Float64("p", 0.5, "edge probability")
		graphs = flag.Int("graphs", 5, "number of random graphs")
		places = flag.Int("places", 16, "places P")
		ks     = flag.String("ks", "8,64,512,4096,32768", "k values")
		spins  = flag.String("spins", "0,64,512", "artificial work per task")
		seed   = flag.Uint64("seed", 20140215, "base random seed")
	)
	flag.Parse()
	cfg := harness.GranConfig{
		Common: harness.Common{N: *n, EdgeP: *p, Graphs: *graphs, Seed: *seed},
		Places: *places,
	}
	var err error
	if cfg.Ks, err = harness.ParseList(*ks, strconv.Atoi); err != nil {
		log.Fatalf("bad -ks: %v", err)
	}
	if cfg.SpinWorks, err = harness.ParseList(*spins, strconv.Atoi); err != nil {
		log.Fatalf("bad -spins: %v", err)
	}
	fmt.Printf("# Granularity: n=%d p=%.2f graphs=%d P=%d\n\n", *n, *p, *graphs, *places)
	points, err := harness.Gran(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := harness.PrintGran(os.Stdout, points); err != nil {
		log.Fatal(err)
	}
}
