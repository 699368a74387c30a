package main

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/adapt"
	"repro/internal/backpressure"
	"repro/internal/core"
	"repro/internal/core/centralized"
	"repro/internal/core/globalpq"
	"repro/internal/core/hybrid"
	"repro/internal/core/wsprio"
	"repro/internal/fair"
	"repro/internal/kfifo"
	"repro/internal/placement"
	"repro/internal/pq"
	"repro/internal/relaxed"
	"repro/internal/segarray"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// The ledger prices each layer from outside: it drives the layer's
// exported API at the measured workload's shape, one goroutine per
// place, and reports nanoseconds per task. Multiplied by how often one
// task used the operation in the traced rep, the rows add up to an
// attributed share of the measured cost of a task; the rest is printed
// as unattributed.

// ledgerShape is what the ledger copies from the workload.
type ledgerShape struct {
	places int // goroutines driving a structure, one per place
	// servePlaces is the worker count of the serve ladder and of the
	// relaxed queue's contention row: one producer rides along, so it is
	// one less than the cores in use whatever the workload.
	servePlaces int
	depth       int // tasks live in the structure while it is priced
	batch       int
	stick       int
	graph       *repro.Graph // shortest-path workloads: the graph to scan
}

// ledgerOps says how often one useful task used each priced row.
type ledgerOps map[string]float64

// ledgerRow is one priced operation.
type ledgerRow struct {
	Metric  string  `json:"metric"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	PerTask float64 `json:"uses_per_task"`
	// Share of the measured cost of one task (ns rows a task used).
	Share float64 `json:"share_of_task"`
}

// price calls op in chunks of n until d has passed and returns the
// median chunk's nanoseconds per call.
func price(d time.Duration, n int, op func()) float64 {
	var per []float64
	for start := time.Now(); time.Since(start) < d || len(per) < 3; {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per)
}

// priceEach runs one goroutine per place, each calling its own op, and
// returns goroutine-nanoseconds per call.
func priceEach(d time.Duration, places, n int, mk func(place int) func()) float64 {
	per := make([]float64, places)
	var wg sync.WaitGroup
	for p := 0; p < places; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			per[p] = price(d, n, mk(p))
		}(p)
	}
	wg.Wait()
	return median(per)
}

// pricePushPop prices one push plus one pop on ds with depth tasks live
// per place.
func pricePushPop(d time.Duration, sh ledgerShape, ds core.DS[task]) float64 {
	return priceEach(d, sh.places, 256, func(place int) func() {
		rng := xrand.New(uint64(place) + 1)
		for i := 0; i < sh.depth; i++ {
			ds.Push(place, relaxK, task{prio: int32(rng.Uint64n(prioRange))})
		}
		return func() {
			ds.Push(place, relaxK, task{prio: int32(rng.Uint64n(prioRange))})
			ds.Pop(place) // a spurious failure leaves the depth one higher; rare and harmless
		}
	})
}

// priceRelaxed prices the relaxed queue's push and pop separately, in
// alternating phases of 256 tasks on one place, in batches of b.
func priceRelaxed(d time.Duration, sh ledgerShape, b, stick int) (pushNs, popNs float64) {
	ds, err := newRelaxed(sh.places+1, stick)
	if err != nil {
		return 0, 0
	}
	rng := xrand.New(7)
	buf := make([]task, b)
	fill := func() {
		for i := range buf {
			buf[i] = task{prio: int32(rng.Uint64n(prioRange))}
		}
	}
	for i := 0; i < sh.depth; i += b {
		fill()
		ds.PushK(0, relaxK, buf)
	}
	const phase = 256
	var push, pop []float64
	for start := time.Now(); time.Since(start) < d || len(push) < 3; {
		t0 := time.Now()
		for n := 0; n < phase; n += b {
			fill()
			if b == 1 {
				ds.Push(0, relaxK, buf[0])
			} else {
				ds.PushK(0, relaxK, buf)
			}
		}
		t1 := time.Now()
		for n := 0; n < phase; {
			if b == 1 {
				if _, ok := ds.Pop(0); ok {
					n++
				}
			} else {
				n += ds.PopKInto(0, buf)
			}
		}
		push = append(push, float64(t1.Sub(t0))/phase)
		pop = append(pop, float64(time.Since(t1))/phase)
	}
	return median(push), median(pop)
}

func newRelaxed(places, stick int) (*relaxed.DS[task], error) {
	return relaxed.NewWithNumeric(core.Options[task]{Places: places, Less: lessTask, Seed: 1},
		relaxed.Config{Mode: relaxed.SampleTwo, Stickiness: stick},
		relaxed.NumericConfig[task]{Prio: func(t task) int64 { return int64(t.prio) }, MaxPrio: prioRange - 1})
}

// priceContention runs one producer place against the consumer places
// and returns failed lane try-locks per thousand tasks.
func priceContention(d time.Duration, sh ledgerShape) float64 {
	places := sh.servePlaces
	ds, err := newRelaxed(places+1, sh.stick)
	if err != nil {
		return 0
	}
	var pushed, popped atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < places; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			buf := make([]task, sh.batch)
			for !stop.Load() {
				if n := ds.PopKInto(p, buf); n > 0 {
					popped.Add(int64(n))
				} else {
					runtime.Gosched()
				}
			}
		}(p)
	}
	rng := xrand.New(11)
	buf := make([]task, sh.batch)
	for start := time.Now(); time.Since(start) < d; {
		if pushed.Load()-popped.Load() > int64(sh.depth) {
			runtime.Gosched()
			continue
		}
		for i := range buf {
			buf[i] = task{prio: int32(rng.Uint64n(prioRange))}
		}
		ds.PushK(places, relaxK, buf)
		pushed.Add(int64(len(buf)))
	}
	stop.Store(true)
	wg.Wait()
	return 1e3 * ratio(float64(ds.ContentionTotal()), float64(popped.Load()))
}

// priceServe runs the closed-loop serve path with an empty task body and
// no instruments for d, with the layers up to rung switched on, and
// returns process CPU nanoseconds per task. The registry of a rung that
// has one is returned for the snapshot row.
func priceServe(d time.Duration, sh ledgerShape, rung int) (float64, *repro.Metrics) {
	const window = 256
	done := make([]struct {
		n atomic.Int64
		_ [56]byte
	}, sh.servePlaces)
	cfg := serveConfig(sh.servePlaces, sh.batch, sh.stick, 3,
		func(ctx repro.Ctx[task], _ task) { done[ctx.Place()].n.Add(1) })
	metrics, _ := addGates(&cfg, rung, io.Discard)
	s, err := repro.NewScheduler(cfg)
	if err != nil || s.Start() != nil {
		return 0, nil
	}
	rng := xrand.New(5)
	buf := make([]task, sh.batch)
	out := make([]repro.Outcome, sh.batch)
	cpu0 := cpuTime()
	var issued int64
	for start := time.Now(); time.Since(start) < d; {
		var finished int64
		for i := range done {
			finished += done[i].n.Load()
		}
		room := window - int(issued-finished)
		if room < window/2 {
			runtime.Gosched()
			continue
		}
		for ; room >= sh.batch; room -= sh.batch {
			for i := range buf {
				buf[i] = task{id: uint32(issued) + uint32(i), prio: int32(rng.Uint64n(prioRange)), tenant: uint8(rng.Uint64n(4))}
			}
			if n, _ := s.SubmitAllKOutcomes(relaxK, buf, out); n > 0 {
				issued += int64(n)
			}
		}
	}
	st, err := s.Stop()
	if err != nil || st.Executed == 0 {
		return 0, nil
	}
	return float64(cpuTime()-cpu0) / float64(st.Executed), metrics
}

// priceSpawn prices the closed-world path a shortest-path task takes:
// worker-side Spawn into the hybrid structure, pop, and the scheduler's
// bookkeeping around Execute. Every task spawns one successor of random
// priority until the chain is spent, sh.depth chains at a time; the
// result is process CPU nanoseconds per task.
func priceSpawn(d time.Duration, sh ledgerShape) float64 {
	type link struct {
		prio int32
		left int32
	}
	const chain = 64
	rngs := make([]*xrand.Rand, sh.places)
	for i := range rngs {
		rngs[i] = xrand.New(uint64(i) + 17)
	}
	s, err := repro.NewScheduler(repro.SchedulerConfig[link]{
		Places: sh.places, Strategy: repro.Hybrid, K: relaxK, Seed: 9,
		Less: func(a, b link) bool { return a.prio < b.prio },
		Execute: func(ctx repro.Ctx[link], t link) {
			if t.left > 0 {
				ctx.Spawn(link{prio: int32(rngs[ctx.Place()].Uint64n(prioRange)), left: t.left - 1})
			}
		},
	})
	if err != nil {
		return 0
	}
	roots := make([]link, sh.depth)
	for i := range roots {
		roots[i] = link{prio: int32(i), left: chain - 1}
	}
	var per []float64
	for start := time.Now(); time.Since(start) < d || len(per) < 3; {
		cpu0 := cpuTime()
		st, err := s.Run(roots...)
		if err != nil || st.Executed == 0 {
			return 0
		}
		per = append(per, float64(cpuTime()-cpu0)/float64(st.Executed))
	}
	return median(per)
}

// priceControllers prices one decision (Controller.Step) of each of the
// four window controllers on samples shaped like the overload workload's.
func priceControllers(d time.Duration, rng *xrand.Rand, ns map[string]float64) {
	var at time.Duration
	if c, err := backpressure.NewController(backpressure.Config{MaxPrio: prioRange - 1, ProtectedBand: protectedBand, SojournBudget: sojournBudget}); err == nil {
		var cum backpressure.Cumulative
		ns["backpressure.decide_us"] = price(d, 64, func() {
			at += 10 * time.Millisecond
			cum.Admitted += 2000
			cum.Deferred += 500
			cum.Shed += 1500
			cum.Readmitted += 400
			cum.Executed += 2400
			cum.Pending, cum.Spill = 3000+int64(rng.Uint64n(4000)), 4096
			c.Step(at, cum)
		}) / 1e3
	}
	if c, err := fair.NewController(fair.Config{Weights: tenantWeights, SojournBudget: sojournBudget}); err == nil {
		n := len(tenantWeights)
		cum := fair.Cumulative{Arrived: make([]int64, n), Admitted: make([]int64, n), Deferred: make([]int64, n),
			Shed: make([]int64, n), Readmitted: make([]int64, n), Executed: make([]int64, n), Pending: make([]int64, n)}
		ns["fair.decide_us"] = price(d, 64, func() {
			at += 10 * time.Millisecond
			for t := 0; t < n; t++ {
				arrive := int64(350 * tenantArrive[t])
				cum.Arrived[t] += arrive
				cum.Admitted[t] += arrive / 2
				cum.Shed[t] += arrive / 2
				cum.Executed[t] += arrive / 2
				cum.Pending[t] = 200 + int64(rng.Uint64n(2000))
			}
			c.Step(at, cum)
		}) / 1e3
	}
	if c, err := adapt.NewController(adapt.Config{}, adapt.State{Stickiness: 4, Batch: 8}); err == nil {
		var cum adapt.Cumulative
		ns["adapt.decide_us"] = price(d, 64, func() {
			at += 10 * time.Millisecond
			cum.Pops += 3000
			cum.PopFailures += int64(rng.Uint64n(50))
			cum.PopRetries += int64(rng.Uint64n(400))
			cum.LaneContention += int64(rng.Uint64n(100))
			cum.Resticks += 700
			cum.BatchPops += 3000
			cum.Pending, cum.RankErrP99 = 256, -1
			c.Step(at, cum)
		}) / 1e3
	}
	if c, err := placement.NewController(placement.Config{MaxGroups: 4}, placement.State{Groups: 4}); err == nil {
		var cum placement.Cumulative
		ns["placement.decide_us"] = price(d, 64, func() {
			at += 10 * time.Millisecond
			cum.Pops += 3000
			cum.PopFailures += int64(rng.Uint64n(50))
			cum.LaneContention += int64(rng.Uint64n(100))
			cum.Steals += int64(rng.Uint64n(300))
			cum.CrossGroupPops += int64(rng.Uint64n(300))
			cum.Pending = 256
			c.Step(at, cum)
		}) / 1e3
	}
}

// priceLadder runs the serve ladder and prices one registry scrape.
func priceLadder(d time.Duration, sh ledgerShape, ns map[string]float64) {
	// The serve ladder: each rung's cost is what it adds to the one below.
	// Three interleaved rounds and the median of each rung, because a rung
	// is a difference of two noisy runs.
	var rung [rungs]float64
	var registry *repro.Metrics
	var rounds [rungs][]float64
	for round := 0; round < 3; round++ {
		for i := range rung {
			v, m := priceServe(2*d, sh, i)
			rounds[i] = append(rounds[i], v)
			if m != nil {
				registry = m
			}
		}
	}
	for i := range rung {
		rung[i] = median(rounds[i])
	}
	ns["sched.bare_ns"] = rung[rungBare]
	ns["backpressure.gate_ns"] = rung[rungBackpressure] - rung[rungBare]
	ns["fair.gate_ns"] = rung[rungTenants] - rung[rungBackpressure]
	ns["obs.metrics_ns"] = rung[rungMetrics] - rung[rungTenants]
	ns["obs.capture_ns"] = rung[rungCapture] - rung[rungMetrics]
	if registry != nil {
		ns["obs.snapshot_ms"] = price(d, 4, func() { registry.Snapshot() }) / 1e6
	}
}

// runLedger prices every row within about budget and attributes the
// measured cost of one task (taskNs) to the priced rows in ops plus the
// parts the traced reps measured directly.
func runLedger(sh ledgerShape, ops ledgerOps, taskNs float64, measured map[string]float64, budget time.Duration) ([]ledgerRow, float64) {
	d := budget / 56 // 26 rows of d and, at 6d each, the spawn row and the five ladder rungs
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	ns := map[string]float64{}
	rng := xrand.New(13)
	draw := func() task { return task{prio: int32(rng.Uint64n(prioRange))} }

	// The sequential queues, at the workload's live depth.
	heap := pq.NewBinHeap[task](lessTask)
	bucket := pq.NewBucketQueue[task](1024, func(t task) int { return int(t.prio) >> 10 })
	for i := 0; i < sh.depth; i++ {
		heap.Push(draw())
		bucket.Push(draw())
	}
	ns["pq.binheap_ns"] = price(d, 256, func() { heap.Push(draw()); heap.Pop() })
	ns["pq.bucket_ns"] = price(d, 256, func() { bucket.Push(draw()); bucket.Pop() })

	fifo := kfifo.New[task](relaxK, 1)
	for i := 0; i < sh.depth; i++ {
		fifo.Enqueue(draw())
	}
	ns["kfifo.enqdeq_ns"] = price(d, 256, func() { fifo.Enqueue(draw()); fifo.Dequeue() })

	arr := segarray.New[task](8*relaxK, 1)
	cur := arr.NewCursor()
	var pos int64
	slotTask := draw()
	ns["segarray.slot_ns"] = price(d, 256, func() {
		arr.Slot(pos).Store(&slotTask)
		pos++
		_ = cur.Load()
		cur.Advance()
	})

	// The relaxed queue: batched and single operations, and contention.
	ns["relaxed.pushk_ns"], ns["relaxed.popkinto_ns"] = priceRelaxed(d, sh, 8, 4)
	ns["relaxed.push1_ns"], ns["relaxed.pop1_ns"] = priceRelaxed(d, sh, 1, 1)
	ns["relaxed.contention_per_ktask"] = priceContention(d, sh)

	// The paper's structures.
	opts := core.Options[task]{Places: sh.places, Less: lessTask, Seed: 1}
	if ds, err := hybrid.New(opts); err == nil {
		ns["core.hybrid.pushpop_ns"] = pricePushPop(d, sh, ds)
	}
	if ds, err := centralized.New(opts); err == nil {
		ns["core.centralized.pushpop_ns"] = pricePushPop(d, sh, ds)
	}
	if ds, err := wsprio.New(opts); err == nil {
		ns["core.wsprio.pushpop_ns"] = pricePushPop(d, sh, ds)
	}
	if ds, err := globalpq.New(opts); err == nil {
		ns["core.globalpq.pushpop_ns"] = pricePushPop(d, sh, ds)
	}

	ns["sched.spawn_ns"] = priceSpawn(6*d, sh)

	// The gates' parts.
	spill := backpressure.NewSpillway[task](4096)
	spillBuf := make([]task, 8)
	ns["backpressure.spillway_ns"] = price(d, 64, func() {
		for i := 0; i < 8; i++ {
			spill.Offer(slotTask)
		}
		spill.DrainUpToInto(spillBuf)
	}) / 8

	priceControllers(d, rng, ns)

	// The instruments the benchmark itself rides on.
	hist := stats.NewHistogram()
	ns["stats.hist_observe_ns"] = price(d, 256, func() { hist.Observe(float64(rng.Uint64n(1 << 24))) })
	if rank, err := stats.NewRankTracker(prioRange, 8); err == nil {
		ns["stats.rank_track_ns"] = price(d, 256, func() {
			p := int64(rng.Uint64n(prioRange))
			rank.Submitted(p)
			rank.Executed(p)
		})
	}

	// The edge scan a shortest-path task does, without any queue.
	if g := sh.graph; g != nil {
		dist := make([]float64, g.N)
		v, better := 0, 0
		ns["sssp.scan_ns"] = price(d, 64, func() {
			ts, ws := g.Neighbors(v)
			for i, t := range ts {
				if dist[t] > dist[v]+ws[i] {
					better++
				}
			}
			if v++; v == g.N {
				v = 0
			}
		})
	}

	priceLadder(d, sh, ns)

	var rows []ledgerRow
	attributed := 0.0
	for _, m := range perLayer {
		v, ok := ns[m.Name]
		if !ok {
			continue
		}
		row := ledgerRow{Metric: m.Name, Value: v, Unit: m.Unit, PerTask: ops[m.Name]}
		if m.Unit == "ns" && taskNs > 0 {
			row.Share = v * row.PerTask / taskNs
			attributed += row.Share
		}
		rows = append(rows, row)
	}
	for _, m := range perLayer {
		if v := measured[m.Name]; v > 0 && taskNs > 0 {
			rows = append(rows, ledgerRow{Metric: m.Name, Value: v, Unit: m.Unit, PerTask: 1, Share: v / taskNs})
			attributed += v / taskNs
		}
	}
	return rows, attributed
}
