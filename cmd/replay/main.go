// Command replay verifies a recorded incident capture offline: it
// reads the versioned JSONL file a serve session wrote (loadgen
// -capture, or any sched.Config.Recorder owner), re-runs every
// recorded controller's decision chain through its pure Decide
// (obs.Capture.Replay — backpressure, adapt, placement and fair
// alike), and diffs the replayed trace against the captured one window
// by window. Bit-identical traces mean the capture, the recorded
// configuration, and the current controller logic still agree — the
// file reproduces the incident's decisions exactly. Any divergence is
// printed with the first differing window and the process exits 1,
// which is what makes a capture useful months later: it detects when
// a controller change rewrites history.
//
// Usage:
//
//	replay [-json] [-q] capture.jsonl
//	replay [-json] [-q] < capture.jsonl
//
// The text report summarizes the capture (source, arrivals, windows
// per controller) and each controller's verdict. -json emits the same
// as one JSON object on stdout for scripting; -q suppresses the
// summary and only reports divergence. The capture schema is
// documented in docs/METRICS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/obs"
)

// report is the -json output document.
type report struct {
	Source    string            `json:"source"`
	Meta      map[string]string `json:"meta,omitempty"`
	Arrivals  int               `json:"arrivals"`
	Dropped   int64             `json:"dropped"`
	Sealed    bool              `json:"sealed"`
	Verdicts  []obs.Verdict     `json:"verdicts"`
	Identical bool              `json:"identical"`
}

// maxDiffLines bounds how many divergent windows a verdict carries:
// the first divergence is the diagnostic, the rest is noise.
const maxDiffLines = 5

func main() {
	log.SetFlags(0)
	log.SetPrefix("replay: ")
	var (
		asJSON = flag.Bool("json", false, "emit the report as JSON on stdout")
		quiet  = flag.Bool("q", false, "only report divergence")
	)
	flag.Parse()

	in := io.Reader(os.Stdin)
	switch flag.NArg() {
	case 0:
	case 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	default:
		log.Fatalf("expected at most one capture file, got %d arguments", flag.NArg())
	}

	c, err := obs.ReadCapture(in)
	if err != nil {
		log.Fatal(err)
	}

	rep := report{
		Source:    c.Header.Source,
		Meta:      c.Header.Meta,
		Arrivals:  len(c.Arrivals),
		Sealed:    c.End != nil,
		Identical: true,
	}
	if c.End != nil {
		rep.Dropped = c.End.Dropped
	}

	if rep.Verdicts, err = c.Replay(); err != nil {
		log.Fatal(err)
	}
	for i := range rep.Verdicts {
		v := &rep.Verdicts[i]
		if !v.Identical {
			rep.Identical = false
		}
		if n := len(v.Diffs); n > maxDiffLines {
			v.Diffs = append(v.Diffs[:maxDiffLines:maxDiffLines],
				fmt.Sprintf("... and %d more divergent windows", n-maxDiffLines))
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
	} else if !*quiet || !rep.Identical {
		printReport(rep)
	}
	if len(rep.Verdicts) == 0 {
		log.Fatal("capture records no controller: nothing to replay")
	}
	if !rep.Identical {
		os.Exit(1)
	}
}

func printReport(rep report) {
	fmt.Printf("capture: source=%s arrivals=%d dropped=%d sealed=%v\n",
		rep.Source, rep.Arrivals, rep.Dropped, rep.Sealed)
	for k, v := range rep.Meta {
		fmt.Printf("  meta %s=%s\n", k, v)
	}
	for _, v := range rep.Verdicts {
		status := "bit-identical"
		if !v.Identical {
			status = "DIVERGED"
		}
		fmt.Printf("%-12s %4d windows  %s\n", v.Controller, v.Windows, status)
		for _, d := range v.Diffs {
			fmt.Printf("  %s\n", d)
		}
	}
}
