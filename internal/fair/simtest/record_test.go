package simtest

import (
	"bytes"
	"testing"

	"repro/internal/ctl"
	"repro/internal/fair"
	"repro/internal/obs"
)

// TestRunRecordedReplaysBitIdentical is the plant-level half of the
// tenant-fairness incident-replay contract: a recorded hot-tenant
// session, read back from its JSONL capture, is the plant's own trace
// record for record — Step's snapshot diffing and cloning included —
// and re-deciding it (obs.Capture.Replay) reproduces it bit-identically.
func TestRunRecordedReplaysBitIdentical(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	cfg := StandardConfig()
	res, err := RunRecorded(cfg, StandardPhases(), rec)
	if err != nil {
		t.Fatal(err)
	}

	// The incident must actually be an incident: the gate engaged.
	gated := false
	for _, w := range res.Windows {
		if w.Window.State.Gated {
			gated = true
			break
		}
	}
	if !gated {
		t.Fatal("hot-tenant script never engaged the gate")
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
	if len(c.Fair) != len(res.Windows) {
		t.Fatalf("capture has %d windows, plant produced %d", len(c.Fair), len(res.Windows))
	}

	// The capture is the live plant trace, not merely self-consistent:
	// the JSONL round-trip is exact.
	live := make([]fair.Window, len(res.Windows))
	for i, w := range res.Windows {
		live[i] = w.Window
	}
	if diffs := ctl.Diff("ten", c.Fair, live); len(diffs) != 0 {
		t.Fatalf("capture diverges from the live plant trace (%d windows), first:\n%s", len(diffs), diffs[0])
	}
	vs, err := c.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Controller != "fair" || vs[0].Windows != len(live) || !vs[0].Identical {
		t.Fatalf("replay verdicts = %+v, want one identical fair verdict over %d windows", vs, len(live))
	}
}
