// Command bench is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the scheduler sees, and — on a separate
// traced run — a per-layer cost ledger. BENCHMARK.json at the root of the
// repository describes it; README.md in this directory explains every
// workload, metric and bound.
//
// The driver's contract is one workload per invocation,
//
//	bash bench/run.sh --workload serve-open --seed 7 --seconds 20 --trace 0
//
// which ends with one line of JSON on standard output. Without
// --workload every workload runs in turn and each prints its line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// sizing is how many cores the run may keep busy. One process, never
// more busy goroutines than P: a serve workload is one producer plus
// P−1 worker places, a shortest-path workload is P places.
type sizing struct {
	P           int // GOMAXPROCS and the busy-goroutine budget
	ServePlaces int // worker places of a serve workload
}

func sizeFor(nproc int) sizing {
	p := nproc
	if p > 4 {
		p = 4
	}
	if p < 1 {
		p = 1
	}
	places := p - 1
	if places < 1 {
		places = 1
	}
	return sizing{P: p, ServePlaces: places}
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool   // -reps-scale tiny: shrunken inputs for the tests
	outDir   string // where trace files go
}

// instance is one set-up workload, ready to be measured.
type instance interface {
	// rep runs one measured repetition; tr is non-nil on a traced one.
	rep(n int, tr *tracer) (repResult, error)
	// shape tells the ledger which operation mix to price.
	shape() ledgerShape
}

// repResult is what one repetition measured.
type repResult struct {
	e2e   map[string]float64 // end-to-end metrics
	layer map[string]float64 // per-layer metrics (traced reps only)
	// samples holds the sample count behind each percentile metric.
	samples map[string]int64
	// ops is how many times one useful task used each ledger row.
	ops               ledgerOps
	attempted, failed int64
	notes             []string // what the oracle objected to
}

// measuredRows are the per-layer metrics that are themselves parts of a
// task's cost, measured by the traced reps rather than priced: they join
// the ledger as rows used once per task.
var measuredRows = []string{"sched.execute_ns_per_task", "runtime.gc_ns_per_task"}

func newRepResult() repResult {
	return repResult{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int64{}}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is the process's resource counters at one instant; a rep reads
// them before and after its measured phase.
type usage struct {
	cpu       time.Duration
	gcCPU     time.Duration // the runtime's estimate of CPU spent collecting
	mallocs   uint64
	bytes     uint64
	heapInuse uint64
}

// heapInuse is the bytes in in-use heap spans right now.
func heapInuse() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, heapInuse: ms.HeapInuse}
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = time.Duration(gc[0].Value.Float64() * float64(time.Second))
	}
	return u
}

// settle returns freed memory between reps so that one rep's garbage is
// not collected on the next one's clock.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setupRuns is how often a run sets the workload up; setup_s is the
// median. The last instance is the one measured.
const setupRuns = 3

// workloadReport is everything one run of one workload produced.
type workloadReport struct {
	Name      string          `json:"name"`
	Why       string          `json:"why"`
	Traced    bool            `json:"traced"`
	Correct   bool            `json:"correct"`
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	Notes     []string        `json:"notes,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
	// Ledger is the traced run's cost attribution, row by row.
	Ledger []ledgerRow `json:"ledger,omitempty"`
	// TraceFile is where the traced run's spans went.
	TraceFile string `json:"trace_file,omitempty"`
}

// runWorkload sets w up, measures it for o.seconds and folds the reps.
func runWorkload(w workload, o options) (workloadReport, error) {
	sz := sizeFor(runtime.NumCPU())
	runtime.GOMAXPROCS(sz.P)
	rep := workloadReport{Name: w.name, Why: w.why, Traced: o.trace, Metrics: map[string]stat{}}

	var inst instance
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		inst = nil
		settle()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(sz, o.seed, o.tiny); err != nil {
			return rep, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// A traced run spends part of its time on the ledger ladder.
	budget := time.Duration(o.seconds * float64(time.Second))
	repBudget := budget
	if o.trace {
		repBudget = budget * 6 / 10
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	e2e := map[string][]float64{}    // untraced reps
	traced := map[string][]float64{} // traced reps: end-to-end values under tracing
	layer := map[string][]float64{}
	samples := map[string]int64{}
	var ops ledgerOps
	start := time.Now()
	var longest time.Duration
	for n := 0; ; n++ {
		// At least two reps: a traced run needs one of each kind.
		if n >= 2 && time.Since(start)+longest > repBudget {
			break
		}
		var rtr *tracer
		if o.trace && n%2 == 0 {
			rtr = tr // a traced run alternates traced and plain reps, traced first
		}
		settle()
		t0 := time.Now()
		if rtr != nil {
			rtr.beginRep()
		}
		r, err := inst.rep(n, rtr)
		if rtr != nil {
			rtr.endRep()
		}
		if err != nil {
			return rep, fmt.Errorf("%s: rep %d: %w", w.name, n, err)
		}
		if d := time.Since(t0); d > longest {
			longest = d
		}
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		rep.Notes = append(rep.Notes, r.notes...)
		into := e2e
		if rtr != nil {
			into = traced
			for k, v := range r.layer {
				layer[k] = append(layer[k], v)
			}
			ops = r.ops
		}
		for k, v := range r.e2e {
			into[k] = append(into[k], v)
		}
		for k, v := range r.samples {
			if old, ok := samples[k]; !ok || v < old {
				samples[k] = v
			}
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0

	if !o.trace {
		e2e["setup_s"] = setups
		for _, m := range endToEnd {
			xs, ok := e2e[m.Name]
			if !ok {
				return rep, fmt.Errorf("%s: no value for %s", w.name, m.Name)
			}
			rep.Metrics[m.Name] = summarize(m.Unit, xs, samples[m.Name])
		}
		return rep, nil
	}

	layer["bench.trace_overhead_pct"] = []float64{
		100 * (1 - ratio(median(traced["tasks_per_s"]), median(e2e["tasks_per_s"]))),
	}
	measured := map[string]float64{}
	for _, name := range measuredRows {
		measured[name] = median(layer[name])
	}
	// What the ledger attributes is the CPU cost of a task under tracing.
	taskNs := median(traced["cpu_ns_per_task"])
	rows, attributed := runLedger(inst.shape(), ops, taskNs, measured, budget-time.Since(start))
	rep.Ledger = rows
	for _, row := range rows {
		if _, ok := layer[row.Metric]; !ok {
			layer[row.Metric] = []float64{row.Value}
		}
	}
	layer["ledger.attributed_share"] = []float64{attributed}
	for _, m := range perLayer {
		rep.Metrics[m.Name] = summarize(m.Unit, layer[m.Name], samples[m.Name])
	}
	file, err := tr.write(o.outDir, w.name)
	if err != nil {
		return rep, err
	}
	rep.TraceFile = file
	return rep, nil
}

// contractLine is the driver's result object, the last line a run prints.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r workloadReport) contract() contractLine {
	c := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]contractMetric{}}
	for name, s := range r.Metrics {
		c.Metrics[name] = contractMetric{Value: s.Value, Unit: s.Unit}
	}
	return c
}

func main() {
	var o options
	var trace int
	var scale, out string
	var compare bool
	flag.StringVar(&o.workload, "workload", "all", "workload to run: one of the names in BENCHMARK.json, or all")
	flag.Uint64Var(&o.seed, "seed", 20140215, "seed of every generated input and every scheduler")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per workload")
	flag.IntVar(&trace, "trace", 0, "1: traced run, reports the per-layer metrics and writes bench/out/trace-<workload>.json")
	flag.StringVar(&scale, "reps-scale", "full", "full, or tiny: shrunken inputs, for the tests")
	flag.StringVar(&out, "out", "", "also write the full report (provenance, quartiles, ledger) to this file")
	flag.BoolVar(&compare, "compare", false, "compare two report files given as arguments against the bounds in BENCHMARK.json")
	flag.Parse()
	o.trace = trace != 0
	o.tiny = scale == "tiny"
	o.outDir = "bench/out"

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if scale != "full" && scale != "tiny" {
		fatal(fmt.Errorf("-reps-scale %q: want full or tiny", scale))
	}
	if o.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}

	var todo []workload
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	}
	full := report{Provenance: provenance(), Seed: o.seed, Seconds: o.seconds, Traced: o.trace}
	ok := true
	for _, w := range todo {
		r, err := runWorkload(w, o)
		if err != nil {
			fatal(err)
		}
		full.Workloads = append(full.Workloads, r)
		for _, n := range r.Notes {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, n)
		}
		ok = ok && r.Correct
		line, err := json.Marshal(r.contract())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	if out != "" {
		if err := full.writeFile(out); err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
