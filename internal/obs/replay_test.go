package obs_test

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	bpsim "repro/internal/backpressure/simtest"
	fairsim "repro/internal/fair/simtest"
	"repro/internal/obs"
)

// recordedFair returns a parsed capture of the standard hot-tenant
// plant run: gate engaged, quotas water-filled, gate released.
func recordedFair(t *testing.T) *obs.Capture {
	t.Helper()
	var buf bytes.Buffer
	if _, err := fairsim.RunRecorded(fairsim.StandardConfig(), fairsim.StandardPhases(), obs.NewRecorder(&buf)); err != nil {
		t.Fatal(err)
	}
	c, err := obs.ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestReplayVerifiesFairness is the regression test for the replay
// that parsed "ten" windows and never re-decided them: an untouched
// capture is identical for every controller it recorded, and one
// flipped quota in one window is reported, at that window.
func TestReplayVerifiesFairness(t *testing.T) {
	c := recordedFair(t)
	vs, err := c.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Controller != "fair" || vs[0].Windows != len(c.Fair) || !vs[0].Identical {
		t.Fatalf("untouched capture: verdicts = %+v, want one identical fair verdict over %d windows", vs, len(c.Fair))
	}

	tampered := -1
	for i, w := range c.Fair {
		if w.State.Gated {
			// Decoded windows share no storage, so this edits window i only.
			w.State.Quotas[1]++
			tampered = i
			break
		}
	}
	if tampered < 0 {
		t.Fatal("hot-tenant script never engaged the gate")
	}
	vs, err = c.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Identical || len(vs[0].Diffs) != 1 {
		t.Fatalf("tampered capture: verdicts = %+v, want exactly one divergent fair window", vs)
	}
	if want := fmt.Sprintf("ten[%d]:", tampered); !strings.HasPrefix(vs[0].Diffs[0], want) {
		t.Fatalf("divergence reported as %q, want it to name %s", vs[0].Diffs[0], want)
	}
}

// TestReplayBothControllers replays a capture that recorded two
// controllers (the shape a -backpressure -tenants serve session
// writes) and expects a verdict for each, with a tampered window
// failing only its own controller's.
func TestReplayBothControllers(t *testing.T) {
	var bp, fr bytes.Buffer
	if _, err := bpsim.RunRecorded(bpsim.StandardConfig(), bpsim.StandardPhases(), obs.NewRecorder(&bp)); err != nil {
		t.Fatal(err)
	}
	if _, err := fairsim.RunRecorded(fairsim.StandardConfig(), fairsim.StandardPhases(), obs.NewRecorder(&fr)); err != nil {
		t.Fatal(err)
	}
	// Splice the fair session's records (minus its header) after the
	// backpressure session's: one file, two controllers. The two lines
	// in between are the kinds of record a capture from before the lane
	// groups went away carries for its placement controller; they are
	// skipped like any unknown record, not verified.
	const oldPlacement = `{"t":"cfg_pl","cfg":{"StealFrac":0.1,"ContendFrac":0.05,"Interval":10000000},"seed":{"groups":2}}
{"t":"pl","w":{"at_ns":10429387,"sample":{"pops":1144,"pop_failures":25464,"lane_contention":27,"steals":263,"cross_group_pops":21,"pending":0},"state":{"groups":2}}}
`
	_, fairBody, _ := strings.Cut(fr.String(), "\n")
	c, err := obs.ReadCapture(strings.NewReader(bp.String() + oldPlacement + fairBody))
	if err != nil {
		t.Fatal(err)
	}
	vs, err := c.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0].Controller != "backpressure" || vs[1].Controller != "fair" || !vs[0].Identical || !vs[1].Identical {
		t.Fatalf("verdicts = %+v, want identical backpressure then fair", vs)
	}
	c.BP[len(c.BP)/2].State.Threshold--
	vs, err = c.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Identical || !vs[1].Identical {
		t.Fatalf("after tampering a bp window: verdicts = %+v, want backpressure diverged, fair identical", vs)
	}
}

// TestReplayRejectsUnreplayable pins the error paths: a capture the
// replay cannot vouch for must not come back as "nothing diverged".
func TestReplayRejectsUnreplayable(t *testing.T) {
	t.Run("no controller recorded", func(t *testing.T) {
		var buf bytes.Buffer
		rec := obs.NewRecorder(&buf)
		rec.Begin(obs.Header{Source: "test"})
		if err := rec.Finish(); err != nil {
			t.Fatal(err)
		}
		c, err := obs.ReadCapture(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if vs, err := c.Replay(); err != nil || len(vs) != 0 {
			t.Fatalf("Replay = %+v, %v; want no verdicts, no error", vs, err)
		}
	})
	t.Run("windows without config", func(t *testing.T) {
		c := recordedFair(t)
		c.FairConfig = nil
		if _, err := c.Replay(); err == nil {
			t.Fatal("replayed ten windows that have no cfg_fair record")
		}
	})
	t.Run("invalid config", func(t *testing.T) {
		c := recordedFair(t)
		c.FairConfig.Weights[0] = -1
		if _, err := c.Replay(); err == nil {
			t.Fatal("replayed under a config fair.NewController rejects")
		}
	})
	t.Run("misshapen sample", func(t *testing.T) {
		c := recordedFair(t)
		c.Fair[3].Sample.Executed = c.Fair[3].Sample.Executed[:2]
		if _, err := c.Replay(); err == nil || !strings.Contains(err.Error(), "ten[3]") {
			t.Fatalf("Replay error = %v, want one naming ten[3]", err)
		}
	})
}

// TestGoldenCapturesReplay is the proof the v1 format did not move:
// testdata/golden_v1_{bp,fair}.jsonl were written by the plants'
// RunRecorded at the commit before the controllers became plain
// ctl.Loop instantiations, and must still parse and replay
// bit-identically. Regenerating them defeats the test.
func TestGoldenCapturesReplay(t *testing.T) {
	for _, g := range []struct {
		file, controller string
		windows          int
	}{
		{"testdata/golden_v1_bp.jsonl", "backpressure", 32},
		{"testdata/golden_v1_fair.jsonl", "fair", 32},
	} {
		f, err := os.Open(g.file)
		if err != nil {
			t.Fatal(err)
		}
		c, err := obs.ReadCapture(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		if c.Header.V != obs.CaptureVersion || c.Header.Source != "simtest" || c.End == nil {
			t.Errorf("%s: header %+v, end %+v", g.file, c.Header, c.End)
		}
		vs, err := c.Replay()
		if err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		if len(vs) != 1 || vs[0].Controller != g.controller || vs[0].Windows != g.windows || !vs[0].Identical {
			t.Errorf("%s: verdicts = %+v, want one identical %d-window %s verdict", g.file, vs, g.windows, g.controller)
		}
	}
}
