package simtest

import (
	"reflect"
	"testing"

	"repro/internal/backpressure"
)

// phaseWindows slices the trace for one phase.
func phaseWindows(res Result, phase string) []WindowResult {
	var out []WindowResult
	for _, w := range res.Windows {
		if w.Phase == phase {
			out = append(out, w)
		}
	}
	return out
}

// TestStandardReplay walks the canonical underload → overload →
// recovery script and asserts the controller's whole overload story.
func TestStandardReplay(t *testing.T) {
	cfg := StandardConfig()
	res, err := Run(cfg, StandardPhases())
	if err != nil {
		t.Fatal(err)
	}
	open := cfg.MaxPrio

	// Underload: the gate must not move — every window fully open, no
	// task gated.
	for i, w := range phaseWindows(res, "underload") {
		if w.Window.State.Threshold != open {
			t.Fatalf("underload window %d tightened the gate to %d", i, w.Window.State.Threshold)
		}
		if w.Window.Sample.Deferred != 0 || w.Window.Sample.Shed != 0 {
			t.Fatalf("underload window %d gated traffic: %+v", i, w.Window.Sample)
		}
	}

	// Overload: the admission bar must rise — the threshold cutoff falls
	// far enough to exclude the lowest-priority group — and the spillway
	// must overflow into real shedding.
	over := phaseWindows(res, "overload")
	minThresh := open
	var shed, deferred int64
	for _, w := range over {
		if th := w.Window.State.Threshold; th < minThresh {
			minThresh = th
		}
		shed += w.Window.Sample.Shed
		deferred += w.Window.Sample.Deferred
	}
	if minThresh >= 900_000 {
		t.Fatalf("overload never excluded the lowest-priority group: min threshold %d", minThresh)
	}
	if minThresh < cfg.ProtectedBand {
		t.Fatalf("threshold tightened into the protected band: %d < %d", minThresh, cfg.ProtectedBand)
	}
	if deferred == 0 || shed == 0 {
		t.Fatalf("sustained 2x overload deferred %d / shed %d tasks, want both > 0", deferred, shed)
	}

	// Protection: the groups inside the protected band were admitted to
	// the last task — never shed, never even deferred.
	for _, prio := range []int64{1 << 10, 1 << 16} {
		if res.ShedByPrio[prio] != 0 || res.DeferredByPrio[prio] != 0 {
			t.Fatalf("protected priority %d was gated: shed=%d deferred=%d",
				prio, res.ShedByPrio[prio], res.DeferredByPrio[prio])
		}
		if res.AdmittedByPrio[prio] == 0 {
			t.Fatalf("protected priority %d never admitted", prio)
		}
	}
	// Sanity: the unprotected tail did get gated, so protection was a
	// decision rather than a coincidence.
	if res.ShedByPrio[900_000] == 0 {
		t.Fatal("lowest-priority group was never shed under 2x overload")
	}

	// Recovery: the spillway drains back into the structure, the backlog
	// clears, and the gate reopens fully.
	rec := phaseWindows(res, "recovery")
	last := rec[len(rec)-1]
	if last.Spill != 0 {
		t.Fatalf("spillway still holds %d tasks after recovery", last.Spill)
	}
	if last.Backlog != 0 {
		t.Fatalf("backlog still %d after recovery", last.Backlog)
	}
	if res.Readmitted == 0 {
		t.Fatal("recovery re-admitted nothing from the spillway")
	}
	if res.Final.Threshold != open {
		t.Fatalf("gate did not reopen after recovery: %d, want %d", res.Final.Threshold, open)
	}
}

// TestMonotoneTightening: while the overload signal persists and no
// window shows headroom, the threshold never relaxes — the per-window
// decision chain is monotone under a monotone signal.
func TestMonotoneTightening(t *testing.T) {
	cfg := StandardConfig()
	// Hard overload with no service at all: every window is overloaded,
	// so the trace must be non-increasing until it saturates at the
	// protected band.
	res, err := Run(cfg, []Phase{{
		Name:    "jam",
		Windows: 64,
		Load:    Load{Arrivals: []Group{{Prio: 1 << 18, Count: 500}}, ServiceRate: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	prev := cfg.MaxPrio
	for i, w := range res.Windows {
		if th := w.Window.State.Threshold; th > prev {
			t.Fatalf("window %d relaxed under sustained overload: %d -> %d", i, prev, th)
		} else {
			prev = th
		}
	}
	if res.Final.Threshold != cfg.ProtectedBand {
		t.Fatalf("sustained jam must saturate at the protected band: %d, want %d",
			res.Final.Threshold, cfg.ProtectedBand)
	}
}

// TestReplayDeterministic: two runs of the same script are
// bit-identical — the property the CI simtest suite and any future
// trace-diffing tooling rest on.
func TestReplayDeterministic(t *testing.T) {
	cfg := StandardConfig()
	a, err := Run(cfg, StandardPhases())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, StandardPhases())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two replays of the same script diverged")
	}
}

// TestScriptValidation rejects malformed phases.
func TestScriptValidation(t *testing.T) {
	cfg := StandardConfig()
	bad := [][]Phase{
		{{Name: "empty", Windows: 0}},
		{{Name: "neg-rate", Windows: 1, Load: Load{ServiceRate: -1}}},
		{{Name: "neg-count", Windows: 1, Load: Load{Arrivals: []Group{{Prio: 1, Count: -1}}}}},
		{{Name: "out-of-domain", Windows: 1, Load: Load{Arrivals: []Group{{Prio: cfg.MaxPrio + 1, Count: 1}}}}},
	}
	for i, phases := range bad {
		if _, err := Run(cfg, phases); err == nil {
			t.Errorf("case %d: malformed script accepted", i)
		}
	}
	if _, err := Run(backpressure.Config{}, StandardPhases()); err == nil {
		t.Error("invalid config accepted")
	}
}
