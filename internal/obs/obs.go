// Package obs is the pluggable observability layer for serve mode:
// metric export and trace capture/replay.
//
// The package deliberately splits the write side from the read side so
// the scheduler's zero-allocation hot path stays untouched:
//
//   - The write side is the Sink interface. Instruments (Counter,
//     Gauge, Histogram) are registered once at setup and observed with
//     plain atomic operations — no locks, no allocation, no
//     formatting. The scheduler publishes its series once per
//     controller window from the controller goroutine; per-task code
//     never touches a sink.
//   - The read side is a scrape: Registry.Snapshot renders the current
//     values on demand, and Handler/JSONHandler serve them over HTTP
//     in Prometheus text exposition format v0.0.4 and as a flat JSON
//     object. Quantiles are computed at scrape time from atomic bucket
//     snapshots, so the cost of summarizing lives entirely on the
//     scraper's goroutine.
//
// Trace capture (Recorder) and deterministic replay (ReadCapture,
// Capture.Replay) live in capture.go and replay.go;
// the JSONL schema they share is documented in docs/METRICS.md.
//
// Every exported series produced by the scheduler is documented in
// docs/METRICS.md (name, type, unit, source counter, cadence).
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Label is one key/value pair attached to a series. Labels distinguish
// series within a family (e.g. the per-tenant admission counters); the
// family name stays shared so Prometheus TYPE/HELP lines render once.
type Label struct {
	Key   string
	Value string
}

// Desc names a series at registration time. Name is the metric family
// name (Prometheus conventions: snake_case, `_total` suffix on
// counters); Help and Unit are documentation carried into the
// exposition; Labels (optional) select one series within the family.
type Desc struct {
	Name   string
	Help   string
	Unit   string
	Labels []Label
}

// id renders the full series identity: the family name plus the label
// set in Prometheus selector syntax.
func (d Desc) id() string {
	if len(d.Labels) == 0 {
		return d.Name
	}
	var b strings.Builder
	b.WriteString(d.Name)
	b.WriteByte('{')
	for i, l := range d.Labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing series. Add is safe for
// concurrent use and never allocates.
type Counter interface{ Add(delta int64) }

// Gauge is a point-in-time series. Set is safe for concurrent use and
// never allocates.
type Gauge interface{ Set(v float64) }

// Histogram is a distribution series. Observe is safe for concurrent
// use and never allocates; quantiles are computed by the reader at
// scrape time.
type Histogram interface{ Observe(v float64) }

// Sink is the pluggable export interface the scheduler publishes
// through. Register instruments once at setup; observe them from any
// goroutine. Implementations must make registration idempotent (same
// Desc returns the same instrument) and observation allocation-free.
type Sink interface {
	Counter(d Desc) Counter
	Gauge(d Desc) Gauge
	Histogram(d Desc) Histogram
}

// Kind discriminates snapshot points.
type Kind int

// The three instrument kinds a Registry exports.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind (histograms
// are exposed as summaries: quantiles are computed at scrape time).
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "summary"
	}
}

// series is one registered instrument. The hot fields are plain
// atomics; the Desc and kind are immutable after registration.
type series struct {
	d    Desc
	id   string
	kind Kind

	counter atomic.Int64  // KindCounter
	gauge   atomic.Uint64 // KindGauge: float64 bits
	gaugeFn func() float64

	hist  *stats.DecayingHist // KindHistogram: log-bucketed values
	count atomic.Int64
	sum   atomic.Uint64 // float64 bits, CAS-advanced
}

func (s *series) Add(delta int64) { s.counter.Add(delta) }
func (s *series) Set(v float64)   { s.gauge.Store(math.Float64bits(v)) }

func (s *series) Observe(v float64) {
	s.hist.Observe(v)
	s.count.Add(1)
	for {
		old := s.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Registry is the in-process snapshot sink: a set of lock-free
// instruments that any number of goroutines observe and any number of
// scrapers snapshot. Registration takes a mutex (setup-time only);
// observation is a single atomic op (counter/gauge) or an atomic
// bucket increment plus count/sum updates (histogram).
type Registry struct {
	mu     sync.Mutex
	byID   map[string]*series
	all    []*series
	sorted bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*series)}
}

// register returns the series for d, creating it on first sight.
// Re-registering the same identity with a different kind is a
// programming error and panics: the two call sites would silently
// corrupt each other's values otherwise.
func (r *Registry) register(d Desc, k Kind) *series {
	if d.Name == "" {
		panic("obs: Desc.Name must be non-empty")
	}
	id := d.id()
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byID[id]; ok {
		if s.kind != k {
			panic(fmt.Sprintf("obs: series %s re-registered as %v, was %v", id, k, s.kind))
		}
		return s
	}
	s := &series{d: d, id: id, kind: k}
	if k == KindHistogram {
		s.hist = stats.NewDecayingHist()
	}
	r.byID[id] = s
	r.all = append(r.all, s)
	r.sorted = false
	return s
}

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(d Desc) Counter { return r.register(d, KindCounter) }

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(d Desc) Gauge { return r.register(d, KindGauge) }

// Histogram registers (or finds) a histogram series.
func (r *Registry) Histogram(d Desc) Histogram { return r.register(d, KindHistogram) }

// GaugeFunc registers a gauge whose value is computed at scrape time
// by fn. Useful for derived series that are too expensive to keep
// current continuously (e.g. allocs/task from runtime.MemStats).
// Not part of the Sink interface — only scrape-side consumers need it.
func (r *Registry) GaugeFunc(d Desc, fn func() float64) {
	s := r.register(d, KindGauge)
	r.mu.Lock()
	s.gaugeFn = fn
	r.mu.Unlock()
}

// Quantiles exported per histogram, in Point.Quantiles order.
var histQuantiles = [3]float64{0.50, 0.95, 0.99}

// Point is one series' value at snapshot time. For histograms, Value
// is unused; Count, Sum, and Quantiles (p50, p95, p99 — NaN when
// empty) carry the distribution.
type Point struct {
	Name      string // family name
	ID        string // family name + label selector
	Kind      Kind
	Help      string
	Unit      string
	Value     float64
	Count     int64
	Sum       float64
	Quantiles [3]float64
}

// Snapshot renders every registered series. The result is sorted by
// identity so output is deterministic; scrape-time work (sorting,
// quantile scans) happens on the caller's goroutine.
func (r *Registry) Snapshot() []Point {
	r.mu.Lock()
	if !r.sorted {
		sort.Slice(r.all, func(i, j int) bool { return r.all[i].id < r.all[j].id })
		r.sorted = true
	}
	all := make([]*series, len(r.all))
	copy(all, r.all)
	r.mu.Unlock()

	pts := make([]Point, 0, len(all))
	var scratch []int64
	for _, s := range all {
		p := Point{Name: s.d.Name, ID: s.id, Kind: s.kind, Help: s.d.Help, Unit: s.d.Unit}
		switch s.kind {
		case KindCounter:
			p.Value = float64(s.counter.Load())
		case KindGauge:
			if s.gaugeFn != nil {
				p.Value = s.gaugeFn()
			} else {
				p.Value = math.Float64frombits(s.gauge.Load())
			}
		case KindHistogram:
			p.Count = s.count.Load()
			p.Sum = math.Float64frombits(s.sum.Load())
			if scratch == nil {
				scratch = make([]int64, s.hist.ScratchLen())
			}
			for i, q := range histQuantiles {
				if p.Count == 0 {
					p.Quantiles[i] = math.NaN()
					continue
				}
				p.Quantiles[i] = s.hist.QuantileScratch(q, scratch)
			}
		}
		pts = append(pts, p)
	}
	return pts
}
