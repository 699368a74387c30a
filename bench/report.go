package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// prov says where a report's numbers came from.
type prov struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func provenance() prov {
	p := prov{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: sizeFor(runtime.NumCPU()).P,
		NProc:      runtime.NumCPU(),
		CPUModel:   "unknown",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	// The driver's checkout is not a git repository; the commit is then
	// simply unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// report is the full output of one invocation (-out).
type report struct {
	Provenance prov             `json:"provenance"`
	Seed       uint64           `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Traced     bool             `json:"traced"`
	Workloads  []workloadReport `json:"workloads"`
}

func (r report) writeFile(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var r report
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var b benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// verdict of one end-to-end metric on one workload, B against A.
func verdict(m boundedMetric, a, b stat) string {
	if a.Value == 0 {
		return "unresolved"
	}
	change := (b.Value - a.Value) / a.Value
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case m.Name != "setup_s" && (a.spread() > m.Bound || b.spread() > m.Bound):
		// The reps of one run disagree by more than the bound: the pair
		// cannot tell a regression from noise. (Set-up runs three times
		// only, so like the driver this does not judge its spread.)
		return "unresolved"
	case change > m.Bound:
		return "worse"
	default:
		return "ok"
	}
}

// compareFiles applies the bounds in BENCHMARK.json to two reports of
// untraced runs and prints one line per workload and end-to-end metric.
// It reports whether any line is worse or unresolved.
func compareFiles(w io.Writer, benchPath, pathA, pathB string) (bool, error) {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	byName := map[string]workloadReport{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	bad := false
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, m := range bf.EndToEnd {
			sa, okA := wa.Metrics[m.Name]
			sb, okB := wb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(m, sa, sb)
			bad = bad || v != "ok"
			fmt.Fprintf(w, "%-15s %-16s %-10s A %.6g  B %.6g %s  (%+.1f%%, bound %.0f%%, spread A %.1f%% B %.1f%%)\n",
				wa.Name, m.Name, v, sa.Value, sb.Value, m.Unit,
				100*ratio(sb.Value-sa.Value, sa.Value), 100*m.Bound, 100*sa.spread(), 100*sb.spread())
		}
	}
	return bad, nil
}
