package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/sssp"
)

// ssspSpec is the input shape of one shortest-path workload.
type ssspSpec struct {
	n      int     // nodes
	p      float64 // Erdős–Rényi edge probability
	solves int     // solves per rep, so that a rep lasts about a second
}

// ssspInstance is one set-up shortest-path workload: the graph, the
// reference answer and the sequential baseline.
type ssspInstance struct {
	spec      ssspSpec
	sz        sizing
	seed      uint64
	g         repro.Graph
	src       int
	ref       []float64
	reachable int64
	genMs     float64
	dijkstra  float64 // ms, single thread
	solveSeq  uint64  // scheduling seed counter, so every solve differs
}

// setupSSSP generates the graph from the seed, solves it sequentially
// for the reference distances, and runs one discarded warm-up solve.
func setupSSSP(spec ssspSpec, sz sizing, seed uint64) (instance, error) {
	in := &ssspInstance{spec: spec, sz: sz, seed: seed}
	t0 := time.Now()
	in.g = repro.ErdosRenyi(spec.n, spec.p, seed)
	in.genMs = ms(time.Since(t0))
	in.src = int(seed % uint64(spec.n))
	t0 = time.Now()
	in.ref, in.reachable = repro.Dijkstra(in.g, in.src)
	in.dijkstra = ms(time.Since(t0))
	if in.reachable < int64(spec.n)/2 {
		return nil, fmt.Errorf("sssp: only %d of %d nodes reachable from %d", in.reachable, spec.n, in.src)
	}
	if _, err := in.solve(nil); err != nil {
		return nil, err
	}
	return in, nil
}

// solveResult is what one solve reports, whichever entry point ran it.
type solveResult struct {
	elapsed                       time.Duration
	relaxed                       int64
	executed, eliminated, spawned int64
	ds                            repro.DSStats
	mismatches                    int64
}

// solve runs one parallel solve and compares every distance with the
// reference. Untraced it goes through the facade; traced it calls the
// sssp package directly, the only entry point that also returns the
// data structure's counters.
func (in *ssspInstance) solve(tr *tracer) (solveResult, error) {
	in.solveSeq++
	seed := in.seed ^ in.solveSeq*0x9e3779b97f4a7c15
	var out solveResult
	var dist []float64
	if tr == nil {
		r, err := repro.SolveSSSP(in.g, in.src, repro.SSSPOptions{
			Places: in.sz.P, Strategy: repro.Hybrid, K: 512, Seed: seed,
		})
		if err != nil {
			return out, err
		}
		dist = r.Dist
		out = solveResult{elapsed: r.Elapsed, relaxed: r.NodesRelaxed,
			executed: r.Executed, eliminated: r.Eliminated, spawned: r.Spawned}
	} else {
		sp := tr.begin("sssp.Parallel", tr.root, int64(in.solveSeq))
		r, err := sssp.Parallel(in.g.Graph, in.src, sssp.Options{
			Places: in.sz.P, Strategy: repro.Hybrid, K: 512, Seed: seed,
		})
		tr.end(sp)
		if err != nil {
			return out, err
		}
		dist = r.Dist
		out = solveResult{elapsed: r.Elapsed, relaxed: r.NodesRelaxed,
			executed: r.Sched.Executed, eliminated: r.Sched.Eliminated,
			spawned: r.Sched.Spawned, ds: r.Sched.DS}
	}
	if len(dist) != len(in.ref) {
		return out, fmt.Errorf("sssp: %d distances for %d nodes", len(dist), len(in.ref))
	}
	for i, d := range dist {
		if d != in.ref[i] {
			out.mismatches++
		}
	}
	return out, nil
}

func (in *ssspInstance) rep(_ int, tr *tracer) (repResult, error) {
	res := newRepResult()
	u0 := readUsage()
	t0 := time.Now()
	var sum solveResult
	var heapPeak uint64
	for i := 0; i < in.spec.solves; i++ {
		r, err := in.solve(tr)
		if err != nil {
			return res, err
		}
		// The heap swings between the live graph and about twice that as
		// the collector cycles, so its peak needs a look after every solve.
		heapPeak = max(heapPeak, heapInuse())
		sum.elapsed += r.elapsed
		sum.relaxed += r.relaxed
		sum.executed += r.executed
		sum.eliminated += r.eliminated
		sum.spawned += r.spawned
		sum.ds.Add(r.ds)
		sum.mismatches += r.mismatches
	}
	wall := time.Since(t0)
	u1 := readUsage()
	cpu := u1.cpu - u0.cpu

	n := float64(in.spec.solves)
	useful := float64(in.reachable) * n
	// Solve times at a small P are bimodal (the places either share the
	// work early or mostly do not), and a median sits in the gap between
	// the modes; the mean over the rep's solves is the steady statistic.
	solveMs := ms(sum.elapsed) / n
	res.attempted = int64(in.spec.solves) * int64(in.spec.n)
	res.failed = sum.mismatches
	if sum.mismatches > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d distances differ from Dijkstra", sum.mismatches))
	}

	res.e2e["tasks_per_s"] = float64(in.reachable) / (solveMs / 1e3)
	res.e2e["cpu_ns_per_task"] = float64(cpu) / useful
	res.e2e["latency_us"] = solveMs * 1e3
	res.e2e["work_ratio"] = float64(sum.relaxed) / useful
	res.e2e["fair_min_share"] = 1
	res.e2e["heap_peak_mb"] = float64(heapPeak) / (1 << 20)

	if tr != nil {
		l := res.layer
		l["sched.worker_busy_share"] = float64(cpu) / (float64(wall) * float64(in.sz.P))
		l["sched.pop_failures_per_task"] = ratio(float64(sum.ds.PopFailures), float64(sum.executed))
		l["sched.allocs_per_task"] = float64(u1.mallocs-u0.mallocs) / float64(sum.executed)
		l["sched.bytes_per_task"] = float64(u1.bytes-u0.bytes) / float64(sum.executed)
		l["sched.spawned_per_executed"] = ratio(float64(sum.spawned), float64(sum.executed))
		l["sched.eliminated_share"] = ratio(float64(sum.eliminated), float64(sum.spawned))
		l["core.hybrid.publishes_per_ktask"] = 1e3 * ratio(float64(sum.ds.Publishes), float64(sum.ds.Pushes))
		l["core.hybrid.spy_hit_share"] = ratio(float64(sum.ds.SpyHits), float64(sum.ds.Spies))
		l["core.hybrid.pop_failure_share"] = ratio(float64(sum.ds.PopFailures), float64(sum.ds.PopFailures+sum.ds.Pops))
		l["sssp.dijkstra_ms"] = in.dijkstra
		l["sssp.speedup"] = in.dijkstra / solveMs
		l["graph.gen_ms"] = in.genMs
		l["runtime.gc_ns_per_task"] = float64(u1.gcCPU-u0.gcCPU) / useful
		res.ops = ledgerOps{
			"sched.spawn_ns": float64(sum.spawned) / useful,
			"sssp.scan_ns":   float64(sum.relaxed) / useful,
		}
	}
	return res, nil
}

func (in *ssspInstance) shape() ledgerShape {
	// The live depth of one place's queue during a solve is a few
	// thousand tasks on both graphs. The serve rows, which no solve uses,
	// are priced at serve-closed's batch and stickiness as a baseline.
	return ledgerShape{places: in.sz.P, servePlaces: in.sz.ServePlaces, depth: 4096, batch: 8, stick: 4, graph: &in.g}
}
