// Command ssspcli runs a single parallel SSSP computation with full
// control over the workload and scheduling configuration, printing the
// work and timing breakdown. Useful for exploring the trade-off space
// beyond the paper's fixed figures.
//
// Usage:
//
//	ssspcli [-graph er|grid] [-n 10000] [-p 0.5] [-rows 100 -cols 100]
//	        [-src 0] [-places 8] [-strategy hybrid] [-k 512]
//	        [-seed 1] [-verify]
//
// -strategy takes any name repro.ParseStrategy accepts; -h lists them.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ssspcli: ")
	var (
		kind   = flag.String("graph", "er", "graph kind: er (Erdős–Rényi) or grid")
		load   = flag.String("load", "", "load a DIMACS .gr file instead of generating")
		save   = flag.String("save", "", "save the graph as DIMACS .gr and exit")
		n      = flag.Int("n", 10000, "nodes (er)")
		p      = flag.Float64("p", 0.5, "edge probability (er)")
		rows   = flag.Int("rows", 100, "rows (grid)")
		cols   = flag.Int("cols", 100, "cols (grid)")
		src    = flag.Int("src", 0, "source node")
		places = flag.Int("places", 8, "places P")
		strat  = flag.String("strategy", "hybrid", fmt.Sprintf("scheduling strategy, one of %v", repro.Strategies()))
		k      = flag.Int("k", 512, "relaxation parameter")
		seed   = flag.Uint64("seed", 1, "random seed")
		verify = flag.Bool("verify", true, "verify distances against Dijkstra")
	)
	flag.Parse()

	var g repro.Graph
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			log.Fatal(err)
		}
		g, err = repro.ReadGraph(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		*kind = *load
	} else {
		switch *kind {
		case "er":
			g = repro.ErdosRenyi(*n, *p, *seed)
		case "grid":
			g = repro.GridGraph(*rows, *cols, *seed)
		default:
			log.Fatalf("unknown -graph %q", *kind)
		}
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			log.Fatal(err)
		}
		if err := repro.WriteGraph(f, g); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (n=%d, m=%d)\n", *save, g.N, g.M())
		return
	}
	st, err := repro.ParseStrategy(*strat)
	if err != nil {
		log.Fatalf("-strategy: %v", err)
	}

	fmt.Printf("graph: %s, n=%d, m=%d undirected edges\n", *kind, g.N, g.M())
	res, err := repro.SolveSSSP(g, *src, repro.SSSPOptions{
		Places:   *places,
		Strategy: st,
		K:        *k,
		Seed:     *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strategy: %s, P=%d, k=%d\n", st, *places, *k)
	fmt.Printf("elapsed:        %v\n", res.Elapsed)
	fmt.Printf("nodes relaxed:  %d\n", res.NodesRelaxed)
	fmt.Printf("tasks spawned:  %d\n", res.Spawned)
	fmt.Printf("tasks executed: %d\n", res.Executed)
	fmt.Printf("dead tasks eliminated lazily: %d\n", res.Eliminated)
	if *verify {
		want, reachable := repro.Dijkstra(g, *src)
		ok := len(want) == len(res.Dist)
		if ok {
			for i := range want {
				a, b := want[i], res.Dist[i]
				if a != b && !(a > 1e308 && b > 1e308) {
					ok = false
					break
				}
			}
		}
		fmt.Printf("reachable nodes (sequential relaxations): %d\n", reachable)
		fmt.Printf("useless work: %d extra relaxations (%.2f%%)\n",
			res.NodesRelaxed-reachable,
			100*float64(res.NodesRelaxed-reachable)/float64(reachable))
		if !ok {
			log.Fatal("VERIFICATION FAILED: distances differ from Dijkstra")
		}
		fmt.Println("verification: OK (distances match Dijkstra)")
	}
}
