package repro

import (
	"io"
	"net/http"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Metrics is an in-process metrics registry for serve mode: wire one
// into SchedulerConfig.Metrics and the scheduler publishes its core
// series — throughput, sojourn-relevant counters, admission outcomes,
// controller states, rank error — once per control window, entirely
// off the per-task hot path. Serve it over HTTP with MetricsHandler
// (Prometheus text format) or MetricsJSONHandler. All methods are safe
// for concurrent use; reads are lock-free. docs/METRICS.md lists every
// exported series.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry. One registry can back
// several schedulers only if their series names never collide; the
// scheduler's own series use fixed names, so give each scheduler its
// own registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// MetricDesc names a series registered on a Metrics registry (used to
// add application-level series — latency histograms, business counters
// — next to the scheduler's own). Name follows Prometheus conventions;
// Labels distinguish series within one family.
type MetricDesc = obs.Desc

// MetricLabel is one key/value pair on a MetricDesc.
type MetricLabel = obs.Label

// MetricsHandler serves the registry in Prometheus text exposition
// format (version 0.0.4) — mount it on /metrics.
func MetricsHandler(m *Metrics) http.Handler { return obs.Handler(m) }

// MetricsJSONHandler serves the registry as one flat JSON object —
// mount it on /metrics.json for jq-style scripting.
func MetricsJSONHandler(m *Metrics) http.Handler { return obs.JSONHandler(m) }

// Recorder captures one serve session to a versioned JSONL trace:
// every controller decision window exactly, plus best-effort arrival
// envelopes (time, priority, k, payload hash). Wire one into
// SchedulerConfig.Recorder before Start; the scheduler seals the
// capture at Stop. The file replays deterministically offline —
// `go run ./cmd/replay capture.jsonl` re-runs the recorded decision
// chains and verifies them bit-identical. The schema is documented in
// docs/METRICS.md.
type Recorder = obs.Recorder

// NewRecorder returns a Recorder writing the capture to w. The
// recorder buffers arrivals in a fixed lock-free ring flushed, and
// freed, at window boundaries. An envelope is dropped and counted
// (Recorder.Dropped) rather than blocking the submit path in two
// cases: the session has already recorded its first 2¹⁸ arrivals, or
// arrivals came so fast that the ring filled between two flushes.
func NewRecorder(w io.Writer) *Recorder { return obs.NewRecorder(w) }

// RankTracker estimates the rank error of executed tasks — how many
// better-priority tasks were live when a task ran — as a windowed p99
// signal. Feed Submitted/Executed (and Retract for shed tasks) from
// the serving callbacks and hand Signal() to
// SchedulerConfig.RankSignal: the metrics export then gains the
// sched_rank_error_p99 series.
type RankTracker = stats.RankTracker

// NewRankTracker returns a tracker for priorities in [0, prioRange).
// prioRange must be a power of two ≥ 256; sampleEvery > 1 samples a
// subset of executions to bound the tracker's overhead.
func NewRankTracker(prioRange int64, sampleEvery int) (*RankTracker, error) {
	return stats.NewRankTracker(prioRange, sampleEvery)
}

// Outcome is the per-task admission result reported by
// SubmitAllOutcomes.
type Outcome = sched.Outcome

// The admission outcomes. Admitted and Deferred tasks will execute;
// Shed tasks will not — a caller tracking live priorities (RankTracker)
// must Retract exactly the Shed ones.
const (
	Admitted = sched.Admitted
	Deferred = sched.Deferred
	Shed     = sched.Shed
)

// SubmitAllOutcomes is SubmitAll with per-task admission results: out,
// when non-nil, must have at least len(vs) entries and out[i] is filled
// with the Outcome of vs[i]. It returns the number of accepted tasks
// (admitted or deferred) and nil, ErrShed (≥ 1 task shed) or
// ErrNotServing (nothing submitted). Without Backpressure every task is
// admitted and the call is exactly SubmitAll.
func (s *Scheduler[T]) SubmitAllOutcomes(vs []T, out []Outcome) (int, error) {
	return s.inner.SubmitAllOutcomes(vs, out)
}

// SubmitAllKOutcomes is SubmitAllOutcomes with an explicit per-task
// relaxation parameter.
func (s *Scheduler[T]) SubmitAllKOutcomes(k int, vs []T, out []Outcome) (int, error) {
	return s.inner.SubmitAllKOutcomes(k, vs, out)
}
