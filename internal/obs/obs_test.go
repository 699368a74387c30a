package obs

import (
	"bufio"
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backpressure"
)

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(Desc{Name: "sched_tasks_executed_total", Help: "executed"})
	c.Add(3)
	c.Add(4)
	// Idempotent registration: same Desc returns the same instrument.
	r.Counter(Desc{Name: "sched_tasks_executed_total", Help: "executed"}).Add(1)

	g := r.Gauge(Desc{Name: "sched_pending_tasks"})
	g.Set(12.5)

	h := r.Histogram(Desc{Name: "serve_sojourn_ns", Unit: "nanoseconds"})
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i + 1))
	}

	r.GaugeFunc(Desc{Name: "derived"}, func() float64 { return 7 })

	byID := map[string]Point{}
	for _, p := range r.Snapshot() {
		byID[p.ID] = p
	}
	if v := byID["sched_tasks_executed_total"].Value; v != 8 {
		t.Errorf("counter = %v, want 8", v)
	}
	if v := byID["sched_pending_tasks"].Value; v != 12.5 {
		t.Errorf("gauge = %v, want 12.5", v)
	}
	if v := byID["derived"].Value; v != 7 {
		t.Errorf("gauge func = %v, want 7", v)
	}
	hp := byID["serve_sojourn_ns"]
	if hp.Count != 1000 {
		t.Errorf("hist count = %d, want 1000", hp.Count)
	}
	if want := 1000.0 * 1001 / 2; hp.Sum != want {
		t.Errorf("hist sum = %v, want %v", hp.Sum, want)
	}
	// γ=1.02 log buckets: ≈2% relative quantile error.
	if p99 := hp.Quantiles[2]; p99 < 950 || p99 > 1050 {
		t.Errorf("hist p99 = %v, want ≈990", p99)
	}
}

func TestRegistryLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter(Desc{Name: "grp", Labels: []Label{{"group", "0"}}}).Add(1)
	r.Counter(Desc{Name: "grp", Labels: []Label{{"group", "1"}}}).Add(2)

	var buf bytes.Buffer
	if err := r.WriteProm(bufio.NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if strings.Count(text, "# TYPE grp counter") != 1 {
		t.Errorf("TYPE line not emitted exactly once per family:\n%s", text)
	}
	for _, want := range []string{`grp{group="0"} 1`, `grp{group="1"} 2`} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter(Desc{Name: "x"})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge(Desc{Name: "x"})
}

func TestPromAndJSONRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter(Desc{Name: "a_total", Help: "a counter"}).Add(5)
	r.Gauge(Desc{Name: "b"}).Set(math.NaN())
	r.Histogram(Desc{Name: "h"}) // empty: quantiles NaN

	var buf bytes.Buffer
	if err := r.WriteProm(bufio.NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP a_total a counter",
		"# TYPE a_total counter",
		"a_total 5",
		"b NaN",
		"# TYPE h summary",
		`h{quantile="0.99"} NaN`,
		"h_sum 0",
		"h_count 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom output missing %q:\n%s", want, text)
		}
	}

	j := r.JSONSnapshot()
	if j["a_total"] != 5.0 {
		t.Errorf("json a_total = %v", j["a_total"])
	}
	if j["b"] != nil {
		t.Errorf("json NaN gauge = %v, want nil", j["b"])
	}
	if j["h_p99"] != nil {
		t.Errorf("json empty hist quantile = %v, want nil", j["h_p99"])
	}
	if j["h_count"] != int64(0) {
		t.Errorf("json h_count = %v", j["h_count"])
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Desc{Name: "h"})
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(2)
			}
		}()
	}
	wg.Wait()
	p := r.Snapshot()[0]
	if p.Count != goroutines*per {
		t.Errorf("count = %d, want %d", p.Count, goroutines*per)
	}
	if p.Sum != float64(2*goroutines*per) {
		t.Errorf("sum = %v, want %v", p.Sum, 2*goroutines*per)
	}
}

// TestCaptureRoundTrip writes a small capture — header, backpressure
// config, arrivals, decision windows — reads it back, and checks the
// decision replay reproduces the recorded trace bit-identically.
func TestCaptureRoundTrip(t *testing.T) {
	cfg := backpressure.Config{MaxPrio: 1023, ProtectedBand: 128}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	ctrl, err := backpressure.NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	rec := NewRecorderSize(&buf, 4)
	rec.Begin(Header{Source: "test", Meta: map[string]string{"strategy": "relaxed-two"}})
	rec.ConfigBackpressure(cfg, ctrl.State())

	// Six arrivals into a ring of four: two must drop, counted not lost.
	for i := 0; i < 6; i++ {
		rec.Arrival(int64(i)*1000, int64(i*100), 2, uint64(i))
	}

	// Drive the real controller through an overload ramp and record
	// every decision.
	var cum backpressure.Cumulative
	interval := cfg.Interval
	for i := 1; i <= 8; i++ {
		cum.Admitted += 500
		cum.Executed += 100
		cum.Pending = cum.Admitted - cum.Executed
		cum.RankErrP99 = -1
		w := ctrl.Step(time.Duration(i)*interval, cum)
		rec.Flush()
		rec.BackpressureWindow(w)
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}

	c, err := ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c.Header.Source != "test" || c.Header.Meta["strategy"] != "relaxed-two" {
		t.Errorf("header round-trip: %+v", c.Header)
	}
	if len(c.Arrivals) != 4 {
		t.Fatalf("arrivals = %d, want 4 (ring cap)", len(c.Arrivals))
	}
	if c.Arrivals[1].Hash != "1" || c.Arrivals[0].Hash != "" {
		t.Errorf("hash round-trip: %+v", c.Arrivals[:2])
	}
	if c.End == nil || c.End.Dropped != 2 || c.End.Arrivals != 4 {
		t.Errorf("end record = %+v", c.End)
	}
	if len(c.BP) != 8 {
		t.Fatalf("bp windows = %d, want 8", len(c.BP))
	}
	// The overload ramp must actually have moved the threshold, or the
	// bit-identical claim below is vacuous.
	if c.BP[len(c.BP)-1].State.Threshold >= cfg.MaxPrio {
		t.Fatalf("threshold never tightened; last window %+v", c.BP[len(c.BP)-1])
	}

	vs, err := c.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Controller != "backpressure" || vs[0].Windows != 8 || !vs[0].Identical {
		t.Errorf("replay verdicts = %+v, want one identical 8-window backpressure verdict", vs)
	}
}

func TestReadCaptureRejectsVersionAndMissingHeader(t *testing.T) {
	if _, err := ReadCapture(strings.NewReader(`{"t":"hdr","v":99,"source":"x"}` + "\n")); err == nil {
		t.Error("want version error")
	}
	if _, err := ReadCapture(strings.NewReader(`{"t":"arr","at_ns":1,"p":2,"k":3}` + "\n")); err == nil {
		t.Error("want missing-header error")
	}
}
