package obs_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
)

// FuzzReadCapture feeds arbitrary bytes to the capture reader and, when
// it accepts them, to the replay. A capture file arrives from outside
// the program (cmd/replay reads whatever path it is given), so the
// contract is: every input yields verdicts or an error — never a panic,
// an out-of-range index or a hang — and an accepted capture's verdicts
// are one per recorded controller config.
func FuzzReadCapture(f *testing.F) {
	for _, name := range []string{"testdata/golden_v1_bp.jsonl", "testdata/golden_v1_fair.jsonl"} {
		golden, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
		// Truncated: at a line boundary (no end record), mid-record, and
		// down to the header alone.
		lines := bytes.SplitAfter(golden, []byte("\n"))
		f.Add(bytes.Join(lines[:len(lines)/2], nil))
		f.Add(golden[:len(golden)/2+7])
		f.Add(lines[0])
		// Garbled: the config record dropped, a window's slices resized,
		// the seed state resized, a number turned into a string.
		f.Add(bytes.Join(append([][]byte{lines[0]}, lines[2:]...), nil))
		s := string(golden)
		f.Add([]byte(strings.Replace(s, `"executed":[`, `"executed":[1,`, 1)))
		f.Add([]byte(strings.Replace(s, `"seed":{`, `"seed":{"gated":true,"quotas":[1],"floors":[],`, 1)))
		f.Add([]byte(strings.Replace(s, `"at_ns":`, `"at_ns":"x`, 1)))
	}
	for _, s := range []string{
		"",
		"\n\n",
		"{}",
		`{"t":"hdr","v":2}`,
		`{"t":"hdr","v":1}` + "\n" + `{"t":"end"}`,
		`{"t":"hdr","v":1}` + "\n" + `{"t":"mystery","x":[1,2,3]}`,
		// Records of the placement controller, as captures from before
		// the lane groups went away carry them: skipped like any unknown.
		`{"t":"hdr","v":1}` + "\n" + `{"t":"cfg_pl","cfg":{},"seed":{"groups":0}}` + "\n" + `{"t":"pl","w":{}}`,
		`{"t":"hdr","v":1}` + "\n" + `{"t":"cfg_adapt","cfg":{},"seed":{}}` + "\n" + `{"t":"adapt","w":{}}`,
		`{"t":"hdr","v":1}` + "\n" + `{"t":"cfg_bp","cfg":{"MaxPrio":-1},"seed":{}}` + "\n" + `{"t":"bp","w":{}}`,
		`{"t":"hdr","v":1}` + "\n" + `{"t":"cfg_fair","cfg":{"Weights":[]},"seed":{}}` + "\n" + `{"t":"ten","w":{}}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := obs.ReadCapture(bytes.NewReader(data))
		if err != nil {
			return
		}
		vs, err := c.Replay()
		if err != nil {
			return
		}
		want := 0
		for _, recorded := range []bool{c.BPConfig != nil, c.AdaptConfig != nil, c.FairConfig != nil} {
			if recorded {
				want++
			}
		}
		if len(vs) != want {
			t.Fatalf("%d verdicts for %d recorded controller configs: %+v", len(vs), want, vs)
		}
		for _, v := range vs {
			if v.Identical != (len(v.Diffs) == 0) {
				t.Fatalf("verdict %+v: Identical disagrees with Diffs", v)
			}
		}
	})
}
