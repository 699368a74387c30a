package harness

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sched"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Common {
	return Common{N: 300, EdgeP: 0.2, Graphs: 2, Seed: 99}
}

func TestFig3Tiny(t *testing.T) {
	cfg := Fig3Config{Common: tiny(), Places: 8, Rhos: []int{0, 16}, Theory: true}
	res, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Settled) != 2 || len(res.HStar) != 2 {
		t.Fatalf("series count: %d settled, %d hstar", len(res.Settled), len(res.HStar))
	}
	// Ideal run settles everything: mean totals equal reachability, and
	// relaxed >= settled for the relaxed run.
	if res.TotalStld[0] <= 0 || res.TotalRlx[0] < res.TotalStld[0] {
		t.Fatalf("rho=0 totals: relaxed %v settled %v", res.TotalRlx[0], res.TotalStld[0])
	}
	if res.TotalRlx[1] < res.TotalRlx[0] {
		t.Fatalf("rho=16 relaxed %v < ideal %v", res.TotalRlx[1], res.TotalRlx[0])
	}
	if res.Bound == nil || len(res.Bound) == 0 {
		t.Fatal("theory bound missing")
	}
	var buf bytes.Buffer
	if err := res.Print(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 3 (left)", "Figure 3 (middle)", "Figure 3 (right)", "settled(rho=0)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printout missing %q:\n%s", want, out)
		}
	}
}

func TestFig4Tiny(t *testing.T) {
	cfg := Fig4Config{
		Common:     tiny(),
		PlacesList: []int{1, 4},
		K:          64,
		Strategies: []sched.Strategy{sched.WorkStealing, sched.Centralized, sched.Hybrid},
		Sequential: true,
	}
	points, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1 sequential + 3 strategies × 2 P values.
	if len(points) != 7 {
		t.Fatalf("got %d points, want 7", len(points))
	}
	for _, p := range points {
		if !p.Verified {
			t.Fatalf("series %s X=%d failed verification", p.Label, p.X)
		}
		if p.RelaxedMean < float64(tiny().N)*0.9 {
			t.Fatalf("series %s X=%d relaxed %v, below node count", p.Label, p.X, p.RelaxedMean)
		}
		if p.TimeMean <= 0 {
			t.Fatalf("series %s X=%d nonpositive time", p.Label, p.X)
		}
	}
	var buf bytes.Buffer
	if err := PrintSSSPPoints(&buf, "P", points); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sequential") {
		t.Fatalf("printout missing sequential series:\n%s", buf.String())
	}
}

func TestFig5Tiny(t *testing.T) {
	cfg := Fig5Config{
		Common:     tiny(),
		Places:     8,
		Ks:         []int{0, 8, 512},
		Strategies: []sched.Strategy{sched.Centralized, sched.Hybrid},
	}
	points, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d points, want 6", len(points))
	}
	for _, p := range points {
		if !p.Verified {
			t.Fatalf("series %s k=%d failed verification", p.Label, p.X)
		}
	}
}

func TestGranTiny(t *testing.T) {
	cfg := GranConfig{
		Common:    Common{N: 200, EdgeP: 0.2, Graphs: 1, Seed: 5},
		Places:    4,
		Ks:        []int{8, 512},
		SpinWorks: []int{0, 32},
	}
	points, err := Gran(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	for _, p := range points {
		if p.WSTime <= 0 || p.HybTime <= 0 || p.Ratio <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
		if p.HybWasted < 0 {
			t.Fatalf("negative waste %+v", p)
		}
		if !p.Verified {
			t.Fatalf("spin=%d k=%d failed verification", p.SpinWork, p.K)
		}
	}
	var buf bytes.Buffer
	if err := PrintGran(&buf, points); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hybrid/ws") || !strings.Contains(buf.String(), "verified") {
		t.Fatalf("printout missing header:\n%s", buf.String())
	}
}

// TestPrintersReportUnverified: a row that did not match Dijkstra is
// still printed, and then comes back as the error the figure commands
// exit on.
func TestPrintersReportUnverified(t *testing.T) {
	var buf bytes.Buffer
	err := PrintSSSPPoints(&buf, "P", []SSSPPoint{{Label: "hybrid", X: 2, Verified: true}, {Label: "hybrid", X: 4}})
	if err == nil || !strings.Contains(buf.String(), "false") {
		t.Fatalf("PrintSSSPPoints: err = %v, printed:\n%s", err, buf.String())
	}
	buf.Reset()
	err = PrintGran(&buf, []GranPoint{{K: 8}})
	if err == nil || !strings.Contains(buf.String(), "false") {
		t.Fatalf("PrintGran: err = %v, printed:\n%s", err, buf.String())
	}
}

func TestParseList(t *testing.T) {
	got, err := ParseList("1, 2,40", strconv.Atoi)
	if err != nil || !slices.Equal(got, []int{1, 2, 40}) {
		t.Fatalf("ParseList = %v, %v", got, err)
	}
	if _, err := ParseList("1,,2", strconv.Atoi); err == nil {
		t.Fatal("empty field accepted")
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	c := DefaultCommon()
	if c.N != 10000 || c.EdgeP != 0.5 || c.Graphs != 20 {
		t.Fatalf("DefaultCommon = %+v, want the paper's n=10000 p=0.5 graphs=20", c)
	}
	f3 := DefaultFig3()
	if f3.Places != 80 || len(f3.Rhos) != 3 {
		t.Fatalf("DefaultFig3 = %+v", f3)
	}
	f4 := DefaultFig4()
	if f4.K != 512 || len(f4.PlacesList) != 8 || f4.PlacesList[7] != 80 {
		t.Fatalf("DefaultFig4 = %+v", f4)
	}
	f5 := DefaultFig5()
	if f5.Places != 80 || f5.Ks[len(f5.Ks)-1] != 32768 || f5.Ks[0] != 0 {
		t.Fatalf("DefaultFig5 = %+v", f5)
	}
}
