// Command fig3sim regenerates Figure 3 of the paper: the phase-wise
// simulation of the parallel SSSP under ρ-relaxation (§5.4) — nodes
// settled per phase, h*_t per phase, and the Theorem 5 lower bound versus
// the simulation (ρ = 0).
//
// Defaults are the paper's: 20 Erdős–Rényi graphs, n = 10000, p = 0.5,
// P = 80 places, ρ ∈ {0, 128, 512}.
//
// Usage:
//
//	fig3sim [-n 10000] [-p 0.5] [-graphs 20] [-places 80]
//	        [-rhos 0,128,512] [-theory] [-seed 20140215]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fig3sim: ")
	var (
		n      = flag.Int("n", 10000, "nodes per graph")
		p      = flag.Float64("p", 0.5, "edge probability")
		graphs = flag.Int("graphs", 20, "number of random graphs (mean is reported)")
		places = flag.Int("places", 80, "places P (nodes relaxed per phase)")
		rhos   = flag.String("rhos", "0,128,512", "comma-separated relaxation values")
		th     = flag.Bool("theory", true, "evaluate the Theorem 5 bound (right panel)")
		seed   = flag.Uint64("seed", 20140215, "base random seed")
	)
	flag.Parse()

	var rhoList []int
	for _, s := range strings.Split(*rhos, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			log.Fatalf("bad -rhos element %q: %v", s, err)
		}
		rhoList = append(rhoList, v)
	}

	cfg := harness.Fig3Config{
		Common: harness.Common{N: *n, EdgeP: *p, Graphs: *graphs, Seed: *seed},
		Places: *places,
		Rhos:   rhoList,
		Theory: *th,
	}
	fmt.Printf("# Figure 3 simulation: n=%d p=%.2f graphs=%d P=%d rhos=%v\n\n",
		*n, *p, *graphs, *places, rhoList)
	res, err := harness.Fig3(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Print(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
