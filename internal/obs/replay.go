package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/adapt"
	"repro/internal/backpressure"
	"repro/internal/ctl"
	"repro/internal/fair"
)

// Capture is a parsed JSONL capture file: the header, whichever
// controller configs were recorded, the arrival envelopes, and the
// decision traces.
type Capture struct {
	Header Header

	// Controller configs and their seed states, nil when the capture's
	// producer did not run that controller.
	BPConfig    *backpressure.Config
	BPSeed      backpressure.State
	AdaptConfig *adapt.Config
	AdaptSeed   adapt.State
	FairConfig  *fair.Config
	FairSeed    fair.State

	Arrivals []Arrival
	BP       []backpressure.Window
	Adapt    []adapt.Window
	Fair     []fair.Window

	// End is non-nil when the capture was Finished cleanly.
	End *End
}

// ErrCaptureVersion reports a capture written by an incompatible
// schema version.
var ErrCaptureVersion = errors.New("obs: unsupported capture version")

// ReadCapture parses a JSONL capture. Unknown record types are
// skipped (forward compatibility within a major version); a missing
// or wrong-version header is an error.
func ReadCapture(r io.Reader) (*Capture, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	c := &Capture{}
	sawHeader := false
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var tag struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal(raw, &tag); err != nil {
			return nil, fmt.Errorf("obs: capture line %d: %w", line, err)
		}
		var err error
		switch tag.T {
		case "hdr":
			var rec struct {
				T string `json:"t"`
				Header
			}
			if err = json.Unmarshal(raw, &rec); err == nil {
				if rec.V != CaptureVersion {
					return nil, fmt.Errorf("%w: got %d, want %d", ErrCaptureVersion, rec.V, CaptureVersion)
				}
				c.Header = rec.Header
				sawHeader = true
			}
		case "cfg_bp":
			var rec cfgRecord[backpressure.Config, backpressure.State]
			if err = json.Unmarshal(raw, &rec); err == nil {
				c.BPConfig, c.BPSeed = &rec.Cfg, rec.Seed
			}
		case "cfg_adapt":
			var rec cfgRecord[adapt.Config, adapt.State]
			if err = json.Unmarshal(raw, &rec); err == nil {
				c.AdaptConfig, c.AdaptSeed = &rec.Cfg, rec.Seed
			}
		case "cfg_fair":
			var rec cfgRecord[fair.Config, fair.State]
			if err = json.Unmarshal(raw, &rec); err == nil {
				c.FairConfig, c.FairSeed = &rec.Cfg, rec.Seed
			}
		case "arr":
			var a Arrival
			if err = json.Unmarshal(raw, &a); err == nil {
				c.Arrivals = append(c.Arrivals, a)
			}
		case "bp":
			var rec windowRecord[backpressure.Window]
			if err = json.Unmarshal(raw, &rec); err == nil {
				c.BP = append(c.BP, rec.W)
			}
		case "adapt":
			var rec windowRecord[adapt.Window]
			if err = json.Unmarshal(raw, &rec); err == nil {
				c.Adapt = append(c.Adapt, rec.W)
			}
		case "ten":
			var rec windowRecord[fair.Window]
			if err = json.Unmarshal(raw, &rec); err == nil {
				c.Fair = append(c.Fair, rec.W)
			}
		case "end":
			var rec struct {
				T string `json:"t"`
				End
			}
			if err = json.Unmarshal(raw, &rec); err == nil {
				e := rec.End
				c.End = &e
			}
		default:
			// Unknown record: skip. Minor additions within a schema
			// version must not break old readers.
		}
		if err != nil {
			return nil, fmt.Errorf("obs: capture line %d (%s): %w", line, tag.T, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, errors.New("obs: capture has no header record")
	}
	return c, nil
}

// Verdict is one controller's replay outcome: how many windows the
// capture recorded for it and where, if anywhere, re-deciding them
// departs from the record.
type Verdict struct {
	Controller string   `json:"controller"`
	Windows    int      `json:"windows"`
	Identical  bool     `json:"identical"`
	Diffs      []string `json:"diffs,omitempty"`
}

// Replay re-decides every controller trace the capture recorded —
// each from its recorded seed, through its package's pure Decide, over
// the recorded samples (ctl.Replay) — and diffs the result against the
// record (ctl.Diff). One verdict per recorded config, in the order
// backpressure, adapt, fair; none when the capture recorded
// no controller. Identical everywhere means the capture, its configs
// and the current decision logic still agree. An error means the
// capture cannot be replayed at all: windows without their config
// record, a config the controller would reject, or a fairness sample
// not sized for the recorded tenant count.
func (c *Capture) Replay() ([]Verdict, error) {
	if c.FairConfig != nil {
		n := c.FairConfig.Tenants()
		for i, w := range c.Fair {
			if !w.Sample.Fits(n) {
				return nil, fmt.Errorf("obs: capture ten[%d]: sample is not sized for the %d configured tenants", i, n)
			}
		}
	}
	var vs []Verdict
	err := errors.Join(
		replayOne(&vs, "backpressure", "bp", c.BPConfig, c.BPSeed, c.BP, backpressure.Decide),
		replayOne(&vs, "adapt", "adapt", c.AdaptConfig, c.AdaptSeed, c.Adapt, adapt.Decide),
		replayOne(&vs, "fair", "ten", c.FairConfig, c.FairSeed, c.Fair, fair.Decide),
	)
	if err != nil {
		return nil, err
	}
	return vs, nil
}

// replayOne appends the verdict for one controller (name; its window
// records are tagged tag) when the capture recorded its config.
func replayOne[C any, PC interface {
	*C
	Validate() error
}, S, St any](vs *[]Verdict, name, tag string, rec PC, seed St, ws []ctl.Window[S, St], decide func(C, St, S) St) error {
	if rec == nil {
		if len(ws) > 0 {
			return fmt.Errorf("obs: capture has %d %q windows but no %s config record", len(ws), tag, name)
		}
		return nil
	}
	cfg := *rec
	if err := PC(&cfg).Validate(); err != nil {
		return fmt.Errorf("obs: capture %s config: %w", name, err)
	}
	diffs := ctl.Diff(tag, ctl.Replay(ws, seed, func(st St, s S) St { return decide(cfg, st, s) }), ws)
	*vs = append(*vs, Verdict{Controller: name, Windows: len(ws), Identical: len(diffs) == 0, Diffs: diffs})
	return nil
}
