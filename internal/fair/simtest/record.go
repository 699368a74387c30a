package simtest

import (
	"repro/internal/fair"
	"repro/internal/obs"
)

// RunRecorded is Run with the session recorded: the validated config,
// the ungated seed the plant starts from, and every window's decision
// record are written to rec as a capture (header source "simtest"),
// and the capture is sealed with Finish. The result is a synthetic
// incident file that obs.Capture.Replay verifies bit-identically.
func RunRecorded(cfg fair.Config, phases []Phase, rec *obs.Recorder) (Result, error) {
	res, err := Run(cfg, phases)
	if err != nil {
		return res, err
	}
	if err := cfg.Validate(); err != nil {
		return res, err
	}
	rec.Begin(obs.Header{Source: "simtest", Meta: map[string]string{"plant": "fair"}})
	rec.ConfigFair(cfg, cfg.Open())
	for _, w := range res.Windows {
		rec.FairWindow(w.Window)
	}
	return res, rec.Finish()
}
