package graphio

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// grSeeds is the fuzz seed corpus: valid files (including float weights
// and an isolated node), edge cases, and malformed records that exercise
// each error path, plus one generated instance so that the corpus holds a
// realistically sized accepted input.
func grSeeds(tb testing.TB) []string {
	seeds := []string{
		"c tiny triangle\np sp 3 6\na 1 2 1\na 2 1 1\na 2 3 2\na 3 2 2\na 1 3 4\na 3 1 4\n",
		"p sp 2 2\na 1 2 0.125\na 2 1 0.125\n",
		"p sp 4 2\na 1 2 1e-3\na 2 1 1e-3\n", // nodes 3 and 4 isolated
		"p sp 1 0\n",
		"p sp 0 0\n",
		"c only a comment\n",
		"",
		"p sp 2 2\na 1 2 1\na 2 1 2\n",   // asymmetric weights
		"p sp 2 1\na 1 2 1\n",            // missing reverse arc
		"p sp 2 4\na 1 2 1\na 2 1 1\n",   // arc count mismatch
		"p sp 2 2\na 1 3 1\na 3 1 1\n",   // node out of range
		"p sp 2 2\na 1 2 0\na 2 1 0\n",   // non-positive weight
		"p sp 2 2\na 1 2 -1\na 2 1 -1\n", // negative weight
		"a 1 2 1\n",                      // arc before problem line
		"p sp x y\n",                     // bad counts
		"q sp 2 2\n",                     // unknown record
		"p sp 2 2\na 1 2 1\na 2 1 1\nextra\n",
		"p sp 2 2\na 1 2 NaN\na 2 1 NaN\n",
		"p sp 2 2\na 1 2 +Inf\na 2 1 +Inf\n",
		"p sp 3 4\na 1 3 1\na 1 2 2\na 3 1 1\na 2 1 2\n", // row not sorted by target
		"p sp 2 3\na 1 2 1\na 1 2 1\na 2 1 1\n",          // parallel arcs, equal weights
		"p sp 2 4\na 1 2 1\na 1 2 2\na 2 1 1\na 2 1 2\n", // parallel arcs, first reverse arc differs
	}
	var big bytes.Buffer
	if err := WriteGr(&big, graph.ErdosRenyi(30, 0.3, 7)); err != nil {
		tb.Fatal(err)
	}
	return append(seeds, big.String())
}

// TestReadGrCorpusVerdicts pins ReadGr's verdict on every corpus entry as
// the first-match symmetry rule of the original O(Σ deg²) Validate gave
// it, so a faster Validate accepts and rejects the same files.
func TestReadGrCorpusVerdicts(t *testing.T) {
	want := []string{
		"<nil>", "<nil>", "<nil>", "<nil>", "<nil>",
		"graphio: missing problem line",
		"graphio: missing problem line",
		"graphio: not a symmetric undirected graph: graph: asymmetric edge 0→1",
		"graphio: not a symmetric undirected graph: graph: asymmetric edge 0→1",
		"graphio: problem line declares 4 arcs, found 2",
		`graphio: line 2: node out of range in "a 1 3 1"`,
		`graphio: line 2: non-positive weight in "a 1 2 0"`,
		`graphio: line 2: non-positive weight in "a 1 2 -1"`,
		"graphio: line 1: arc before problem line",
		`graphio: line 1: bad node count "x"`,
		`graphio: line 1: unknown record "q sp 2 2"`,
		`graphio: line 4: unknown record "extra"`,
		`graphio: line 2: non-positive weight in "a 1 2 NaN"`,
		"<nil>",
		"<nil>",
		"<nil>",
		"graphio: not a symmetric undirected graph: graph: asymmetric edge 0→1",
		"<nil>",
	}
	seeds := grSeeds(t)
	if len(seeds) != len(want) {
		t.Fatalf("%d corpus entries, %d verdicts", len(seeds), len(want))
	}
	for i, s := range seeds {
		_, err := ReadGr(bytes.NewReader([]byte(s)))
		if got := fmt.Sprint(err); got != want[i] {
			t.Errorf("entry %d: ReadGr error %q, want %q", i, got, want[i])
		}
	}
}

// FuzzGrRoundTrip feeds arbitrary bytes to the DIMACS parser. Inputs the
// parser rejects are fine (that is its job); inputs it accepts must
// survive a full write → parse round trip with the graph unchanged —
// the parser and writer are each other's inverses on the accepted set.
func FuzzGrRoundTrip(f *testing.F) {
	for _, s := range grSeeds(f) {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGr(bytes.NewReader(data))
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		var buf bytes.Buffer
		if err := WriteGr(&buf, g); err != nil {
			t.Fatalf("WriteGr failed on accepted graph: %v", err)
		}
		back, err := ReadGr(&buf)
		if err != nil {
			t.Fatalf("ReadGr rejected its own writer's output: %v\n%s", err, buf.Bytes())
		}
		if !sameGraph(g, back) {
			t.Fatalf("round trip changed the graph:\nfirst:  %+v\nsecond: %+v", g, back)
		}
	})
}

// sameGraph compares the full CSR representation. WriteGr emits weights
// at full float64 precision and arcs in adjacency order, so an accepted
// graph must round-trip bit-for-bit.
func sameGraph(a, b *graph.Graph) bool {
	if a.N != b.N || len(a.RowPtr) != len(b.RowPtr) ||
		len(a.Targets) != len(b.Targets) || len(a.Weights) != len(b.Weights) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] || a.Weights[i] != b.Weights[i] {
			return false
		}
	}
	return true
}
