package simtest

import (
	"bytes"
	"testing"

	"repro/internal/backpressure"
	"repro/internal/ctl"
	"repro/internal/obs"
)

// burstyPhases is a bursty-overload incident script: saturating bursts
// with idle gaps between them, then a recovery tail. Each burst is a
// 4× overload, so the gate must tighten inside every burst and reopen
// across the gaps.
func burstyPhases() []Phase {
	burst := Load{
		Arrivals: []Group{
			{Prio: 1 << 10, Count: 400},
			{Prio: 1 << 18, Count: 1600},
			{Prio: 900_000, Count: 2000},
		},
		ServiceRate: 1000,
	}
	idle := Load{ServiceRate: 1000}
	return []Phase{
		{Name: "warmup", Windows: 10, Load: Load{Arrivals: []Group{{Prio: 1 << 16, Count: 100}}, ServiceRate: 1000}},
		{Name: "burst1", Windows: 15, Load: burst},
		{Name: "gap1", Windows: 10, Load: idle},
		{Name: "burst2", Windows: 15, Load: burst},
		{Name: "gap2", Windows: 10, Load: idle},
		{Name: "recovery", Windows: 30, Load: Load{Arrivals: []Group{{Prio: 1 << 16, Count: 100}}, ServiceRate: 1000}},
	}
}

// TestRunRecordedReplaysBitIdentical is the plant-level half of the
// incident-replay contract: a recorded bursty-overload session, read
// back from its JSONL capture, is the plant's own trace record for
// record — Step's snapshot diffing included — and re-deciding it
// (obs.Capture.Replay) reproduces it bit-identically.
func TestRunRecordedReplaysBitIdentical(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	cfg := StandardConfig()
	res, err := RunRecorded(cfg, burstyPhases(), rec)
	if err != nil {
		t.Fatal(err)
	}

	// The incident must actually be an incident: the gate tightened.
	tightened := false
	for _, w := range res.Windows {
		if w.Window.State.Threshold < cfg.MaxPrio {
			tightened = true
			break
		}
	}
	if !tightened {
		t.Fatal("bursty script never tightened the threshold")
	}

	c, err := obs.ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c.Header.Source != "simtest" {
		t.Fatalf("capture source = %q, want simtest", c.Header.Source)
	}
	if c.End == nil {
		t.Fatal("capture was not sealed")
	}
	if len(c.BP) != len(res.Windows) {
		t.Fatalf("capture has %d windows, plant produced %d", len(c.BP), len(res.Windows))
	}

	// The capture is the live plant trace, not merely self-consistent:
	// the JSONL round-trip is exact.
	live := make([]backpressure.Window, len(res.Windows))
	for i, w := range res.Windows {
		live[i] = w.Window
	}
	if diffs := ctl.Diff("bp", c.BP, live); len(diffs) != 0 {
		t.Fatalf("capture diverges from the live plant trace (%d windows), first:\n%s", len(diffs), diffs[0])
	}
	vs, err := c.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Controller != "backpressure" || vs[0].Windows != len(live) || !vs[0].Identical {
		t.Fatalf("replay verdicts = %+v, want one identical backpressure verdict over %d windows", vs, len(live))
	}
}
