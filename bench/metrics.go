package main

// metricDef mirrors one entry of BENCHMARK.json's end_to_end or
// per_layer list; bench_test.go checks the two stay in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics a user of the scheduler sees. Every workload
// reports every one; README.md says what each means where.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"tasks_per_s", "1/s", "higher"},
	{"cpu_ns_per_task", "ns", "lower"},
	{"latency_us", "us", "lower"},
	{"work_ratio", "ratio", "lower"},
	{"fair_min_share", "ratio", "higher"},
	{"heap_peak_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, <module>.<metric>. A workload
// that does not use a layer reports 0 for it.
var perLayer = []metricDef{
	{"bench.gen_late_p99_us", "us", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},

	{"sched.start_ms", "ms", "lower"},
	{"sched.stop_ms", "ms", "lower"},
	{"sched.drain_ms", "ms", "lower"},
	{"sched.submit_ns_per_task", "ns", "lower"},
	{"sched.submit_calls", "count", "lower"},
	{"sched.queue_wait_p50_us", "us", "lower"},
	{"sched.queue_wait_p99_us", "us", "lower"},
	{"sched.sojourn_p50_us", "us", "lower"},
	{"sched.sojourn_p99_us", "us", "lower"},
	{"sched.execute_ns_per_task", "ns", "lower"},
	{"sched.worker_busy_share", "ratio", "higher"},
	{"sched.pop_failures_per_task", "ratio", "lower"},
	{"sched.allocs_per_task", "count", "lower"},
	{"sched.bytes_per_task", "B", "lower"},
	{"sched.spawned_per_executed", "ratio", "lower"},
	{"sched.eliminated_share", "ratio", "higher"},
	{"sched.failed_share", "ratio", "lower"},
	{"sched.bare_ns", "ns", "lower"},
	{"sched.spawn_ns", "ns", "lower"},

	{"relaxed.rank_err_p99", "tasks", "lower"},
	{"relaxed.batch_push_size", "tasks", "higher"},
	{"relaxed.batch_pop_size", "tasks", "higher"},
	{"relaxed.pop_retry_share", "ratio", "lower"},
	{"relaxed.restick_share", "ratio", "lower"},
	{"relaxed.pushk_ns", "ns", "lower"},
	{"relaxed.popkinto_ns", "ns", "lower"},
	{"relaxed.push1_ns", "ns", "lower"},
	{"relaxed.pop1_ns", "ns", "lower"},
	{"relaxed.contention_per_ktask", "count", "lower"},

	{"core.hybrid.publishes_per_ktask", "count", "lower"},
	{"core.hybrid.spy_hit_share", "ratio", "higher"},
	{"core.hybrid.pop_failure_share", "ratio", "lower"},
	{"core.hybrid.pushpop_ns", "ns", "lower"},
	{"core.centralized.pushpop_ns", "ns", "lower"},
	{"core.wsprio.pushpop_ns", "ns", "lower"},
	{"core.globalpq.pushpop_ns", "ns", "lower"},

	{"pq.binheap_ns", "ns", "lower"},
	{"pq.bucket_ns", "ns", "lower"},
	{"kfifo.enqdeq_ns", "ns", "lower"},
	{"segarray.slot_ns", "ns", "lower"},

	{"backpressure.shed_share", "ratio", "lower"},
	{"backpressure.deferred_share", "ratio", "lower"},
	{"backpressure.readmitted_share", "ratio", "higher"},
	{"backpressure.threshold_moves", "count", "lower"},
	{"backpressure.gated_window_share", "ratio", "lower"},
	{"backpressure.protected_p99_us", "us", "lower"},
	{"backpressure.gate_ns", "ns", "lower"},
	{"backpressure.spillway_ns", "ns", "lower"},
	{"backpressure.decide_us", "us", "lower"},

	{"fair.tenant_shed_share", "ratio", "lower"},
	{"fair.gated_window_share", "ratio", "lower"},
	{"fair.hot_share", "ratio", "lower"},
	{"fair.gate_ns", "ns", "lower"},
	{"fair.decide_us", "us", "lower"},

	{"adapt.decide_us", "us", "lower"},
	{"placement.decide_us", "us", "lower"},

	{"obs.capture_bytes_per_task", "B", "lower"},
	{"obs.capture_dropped", "count", "lower"},
	{"obs.counter_drift", "count", "lower"},
	{"obs.metrics_ns", "ns", "lower"},
	{"obs.capture_ns", "ns", "lower"},
	{"obs.snapshot_ms", "ms", "lower"},

	{"stats.hist_observe_ns", "ns", "lower"},
	{"stats.rank_track_ns", "ns", "lower"},

	{"sssp.dijkstra_ms", "ms", "lower"},
	{"sssp.speedup", "ratio", "higher"},
	{"sssp.scan_ns", "ns", "lower"},
	{"graph.gen_ms", "ms", "lower"},

	{"runtime.gc_ns_per_task", "ns", "lower"},
	{"ledger.attributed_share", "ratio", "higher"},
}

// workload is one row of BENCHMARK.json's workloads.
type workload struct {
	name  string
	why   string
	setup func(sz sizing, seed uint64, tiny bool) (instance, error)
}

// priorities are uniform over [0, prioRange); the never-shed band is its
// most urgent eighth.
const prioRange = 1 << 20

var workloads = []workload{
	{
		name: "serve-closed",
		why:  "closed loop at saturation: batched relaxed-queue push/pop, the submit path and the envelope arena are nearly all of the time",
		setup: func(sz sizing, seed uint64, tiny bool) (instance, error) {
			return setupServe(serveSpec{
				window: 256, stick: 4, batch: 8, sojournEvery: 16,
				repSeconds: 1, warmTasks: 1 << 20,
			}.scaled(tiny), sz, seed)
		},
	},
	{
		name: "serve-open",
		why:  "open loop at a quarter of capacity: near-empty lanes and unbatched singles, so the worker idle/wake path sets latency",
		setup: func(sz sizing, seed uint64, tiny bool) (instance, error) {
			return setupServe(serveSpec{
				ratePerPlace: 300e3, stick: 1, batch: 1, sojournEvery: 1,
				repSeconds: 1.5, warmTasks: 1 << 18,
			}.scaled(tiny), sz, seed)
		},
	},
	{
		name: "serve-overload",
		why:  "open loop at 1.5x capacity with tenants: the only workload where fair, backpressure, the spillway and obs do work",
		setup: func(sz sizing, seed uint64, tiny bool) (instance, error) {
			return setupServe(serveSpec{
				ratePerPlace: 450e3, stick: 4, batch: 8, sojournEvery: 1,
				spin: 2000, gated: true, meanLatency: true, repSeconds: 1.5, warmTasks: 1 << 18,
			}.scaled(tiny), sz, seed)
		},
	},
	{
		name: "sssp-sparse",
		why:  "the paper's application with tiny tasks on a sparse graph: hybrid, kfifo, pq and worker-side Spawn dominate; no Submit, no gates",
		setup: func(sz sizing, seed uint64, tiny bool) (instance, error) {
			spec := ssspSpec{n: 30000, p: 4e-4, solves: 10}
			if tiny {
				spec = ssspSpec{n: 3000, p: 4e-3, solves: 1}
			}
			return setupSSSP(spec, sz, seed)
		},
	},
	{
		name: "sssp-dense",
		why:  "control: push-heavy use of hybrid on a dense graph, 7 spawns per executed task, most eliminated as stale, edge scan a quarter of the cost; a pop-side optimisation should not show",
		setup: func(sz sizing, seed uint64, tiny bool) (instance, error) {
			spec := ssspSpec{n: 4000, p: 0.5, solves: 20}
			if tiny {
				spec = ssspSpec{n: 200, p: 0.5, solves: 2}
			}
			return setupSSSP(spec, sz, seed)
		},
	},
}
