package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Deterministic checks only: nothing here asserts a wall-clock number.

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func tinyOptions(t *testing.T, trace bool) options {
	return options{seed: 7, seconds: 0.2, trace: trace, tiny: true, outDir: t.TempDir()}
}

// TestBenchmarkFileMatchesProgram: BENCHMARK.json and the program name
// the same workloads and metrics, in the same order, with legal names.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: illegal name or why", w.name)
		}
	}
	check := func(kind string, file []boundedMetric, prog []metricDef, bounded bool) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(prog))
		}
		seen := map[string]bool{}
		for i, m := range prog {
			f := file[i]
			if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json says %+v, the program %+v", kind, i, f, m)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: name %q is illegal or used twice", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			}
			if bounded && (f.Bound <= 0 || f.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, f.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}

// TestWorkloadsEmitEveryMetric runs every workload at tiny scale, both
// untraced and traced: the oracle passes, and the contract line carries
// exactly the metrics of its mode.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r, err := runWorkload(w, tinyOptions(t, trace))
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, failed %d of %d: %v", w.name, trace, r.Correct, r.Failed, r.Attempted, r.Notes)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			got := r.contract().Metrics
			if len(got) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, want %d", w.name, trace, len(got), len(want))
			}
			for _, m := range want {
				v, ok := got[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s (trace %v): metric %s missing or in unit %q", w.name, trace, m.Name, v.Unit)
				}
				if !trace && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
				}
			}
			if trace && r.TraceFile == "" {
				t.Errorf("%s: traced run wrote no trace file", w.name)
			}
		}
	}
}

// TestSameSeedSameInputs: the inputs are a function of the seed alone.
func TestSameSeedSameInputs(t *testing.T) {
	sz := sizeFor(2)
	a, err := setupSSSP(ssspSpec{n: 500, p: 0.02, solves: 1}, sz, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := setupSSSP(ssspSpec{n: 500, p: 0.02, solves: 1}, sz, 9)
	if err != nil {
		t.Fatal(err)
	}
	ga, gb := a.(*ssspInstance), b.(*ssspInstance)
	if ga.src != gb.src || ga.reachable != gb.reachable || ga.g.M() != gb.g.M() {
		t.Errorf("seed 9 gave two different graphs")
	}
	for i := range ga.ref {
		if ga.ref[i] != gb.ref[i] {
			t.Fatalf("seed 9 gave two different reference answers at node %d", i)
		}
	}
}

// TestCompareWithItself: a report compared with itself is all ok.
func TestCompareWithItself(t *testing.T) {
	var full report
	for _, w := range workloads {
		r, err := runWorkload(w, tinyOptions(t, false))
		if err != nil {
			t.Fatal(err)
		}
		// Tiny reps are far too short to be steady; pin the spread so the
		// verdict depends on the comparison alone.
		for k, s := range r.Metrics {
			s.Q1, s.Q3 = s.Value, s.Value
			r.Metrics[k] = s
		}
		full.Workloads = append(full.Workloads, r)
	}
	path := filepath.Join(t.TempDir(), "set.json")
	if err := full.writeFile(path); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	bad, err := compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), path, path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(out.String(), "\n")
	if bad || lines != len(workloads)*len(endToEnd) || strings.Contains(out.String(), "worse") {
		t.Errorf("self-comparison: bad=%v, %d lines:\n%s", bad, lines, out.String())
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v .. %v, want 1 .. 3", q1, q3)
	}
}
