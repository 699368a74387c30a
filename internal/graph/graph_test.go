package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestValidateSmallER(t *testing.T) {
	for _, p := range []float64{0, 0.01, 0.3, 0.5, 1.0} {
		g := ErdosRenyi(200, p, 42)
		if err := g.Validate(); err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
	}
}

func TestERDeterminism(t *testing.T) {
	a := ErdosRenyi(300, 0.5, 7)
	b := ErdosRenyi(300, 0.5, 7)
	if a.M() != b.M() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.M(), b.M())
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] || a.Weights[i] != b.Weights[i] {
			t.Fatalf("same seed, different edge %d", i)
		}
	}
	c := ErdosRenyi(300, 0.5, 8)
	if c.M() == a.M() {
		// Edge counts can collide; compare content to be sure.
		same := true
		for i := range a.Targets {
			if a.Targets[i] != c.Targets[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestEREdgeCountConcentration(t *testing.T) {
	const n = 500
	const p = 0.3
	g := ErdosRenyi(n, p, 1)
	want := p * float64(n) * float64(n-1) / 2
	got := float64(g.M())
	sd := math.Sqrt(want * (1 - p))
	if math.Abs(got-want) > 6*sd {
		t.Fatalf("edge count %v, want about %v (±%v)", got, want, 6*sd)
	}
}

func TestERWeightsInUnitInterval(t *testing.T) {
	g := ErdosRenyi(100, 0.5, 3)
	sum := 0.0
	for _, w := range g.Weights {
		if !(w > 0 && w <= 1) {
			t.Fatalf("weight %v outside (0,1]", w)
		}
		sum += w
	}
	mean := sum / float64(len(g.Weights))
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("weight mean %v, want about 0.5", mean)
	}
}

func TestERDenseSparseAgreeOnInvariants(t *testing.T) {
	// The two generation strategies produce different graphs (different
	// randomness layout) but identical statistical structure; both must
	// validate and hit the expected density.
	const n = 400
	const p = 0.04 // sparse path
	g := ErdosRenyi(n, p, 5)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := p * float64(n) * float64(n-1) / 2
	sd := math.Sqrt(want * (1 - p))
	if got := float64(g.M()); math.Abs(got-want) > 6*sd {
		t.Fatalf("sparse path edge count %v, want about %v", got, want)
	}
}

func TestPairFromIndexBijective(t *testing.T) {
	for _, n := range []int{2, 3, 5, 17} {
		total := int64(n) * int64(n-1) / 2
		seen := map[[2]int]bool{}
		for idx := int64(0); idx < total; idx++ {
			i, j := pairFromIndex(idx, n)
			if i < 0 || j <= i || j >= n {
				t.Fatalf("n=%d idx=%d -> invalid pair (%d,%d)", n, idx, i, j)
			}
			if seen[[2]int{i, j}] {
				t.Fatalf("n=%d idx=%d -> duplicate pair (%d,%d)", n, idx, i, j)
			}
			seen[[2]int{i, j}] = true
		}
	}
}

func TestPairFromIndexQuick(t *testing.T) {
	f := func(raw uint32, nRaw uint8) bool {
		n := int(nRaw)%100 + 2
		total := int64(n) * int64(n-1) / 2
		idx := int64(raw) % total
		i, j := pairFromIndex(idx, n)
		return i >= 0 && i < j && j < n && prefixPairs(i, n)+int64(j-i-1) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGrid(t *testing.T) {
	g := Grid(4, 5, 9)
	if g.N != 20 {
		t.Fatalf("N = %d, want 20", g.N)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 4x5 grid: 4*(5-1) + 5*(4-1) = 31 undirected edges.
	if g.M() != 31 {
		t.Fatalf("M = %d, want 31", g.M())
	}
	// Corner degree 2, interior degree 4.
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree %d, want 2", g.Degree(0))
	}
	if g.Degree(6) != 4 {
		t.Fatalf("interior degree %d, want 4", g.Degree(6))
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(4, [][3]float64{{0, 1, 0.5}, {1, 2, 0.25}, {2, 3, 1}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() != 3 || g.Degree(1) != 2 {
		t.Fatalf("M=%d deg(1)=%d", g.M(), g.Degree(1))
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		g := ErdosRenyi(n, 0.5, 1)
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	if g := ErdosRenyi(2, 1.0, 1); g.M() != 1 {
		t.Fatalf("K2 has %d edges", g.M())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := ErdosRenyi(50, 0.3, 2)
	if len(g.Targets) == 0 {
		t.Skip("degenerate graph")
	}
	w := g.Weights[0]
	g.Weights[0] = -1
	if err := g.Validate(); err == nil {
		t.Fatal("negative weight not caught")
	}
	g.Weights[0] = w
	tgt := g.Targets[0]
	g.Targets[0] = int32(g.N) + 5
	if err := g.Validate(); err == nil {
		t.Fatal("out-of-range target not caught")
	}
	g.Targets[0] = tgt
	if err := g.Validate(); err != nil {
		t.Fatalf("restored graph invalid: %v", err)
	}
}

// refPairExists and refErDense are the dense generator as first written:
// every ordered pair is tested in both a degree pass and a fill pass. They
// define the graphs erDense must reproduce bit for bit.
func refPairExists(seed uint64, i, j int, p float64) (float64, bool) {
	h := xrand.NewSplitMix64(seed ^ (uint64(i)<<32 | uint64(uint32(j)))).Next()
	u := float64(h>>11) * (1.0 / (1 << 53))
	if u >= p {
		return 0, false
	}
	w := 1.0 - float64(xrand.NewSplitMix64(h).Next()>>11)*(1.0/(1<<53))
	return w, true
}

func refErDense(n int, p float64, seed uint64) *Graph {
	deg := make([]int64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if _, ok := refPairExists(seed, min(i, j), max(i, j), p); ok {
				deg[i]++
			}
		}
	}
	g := fromDegrees(n, deg)
	for i := 0; i < n; i++ {
		pos := g.RowPtr[i]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if w, ok := refPairExists(seed, min(i, j), max(i, j), p); ok {
				g.Targets[pos] = int32(j)
				g.Weights[pos] = w
				pos++
			}
		}
	}
	return g
}

// sameCSR reports the first difference between two graphs' CSR arrays,
// weights compared bit for bit.
func sameCSR(a, b *Graph) error {
	if a.N != b.N || len(a.RowPtr) != len(b.RowPtr) || len(a.Targets) != len(b.Targets) || len(a.Weights) != len(b.Weights) {
		return fmt.Errorf("shape: N %d/%d, m %d/%d", a.N, b.N, len(a.Targets), len(b.Targets))
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return fmt.Errorf("RowPtr[%d] = %d, want %d", i, a.RowPtr[i], b.RowPtr[i])
		}
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] || math.Float64bits(a.Weights[i]) != math.Float64bits(b.Weights[i]) {
			return fmt.Errorf("entry %d = (%d, %v), want (%d, %v)", i, a.Targets[i], a.Weights[i], b.Targets[i], b.Weights[i])
		}
	}
	return nil
}

func TestErDenseMatchesReference(t *testing.T) {
	ns := []int{0, 1, 2, 3, 63, 64, 65, 127, 128, 129, 200}
	ps := []float64{0.0500001, 0.051, 0.3, 0.5, 0.9, 0.999999, 1}
	for _, n := range ns {
		for _, p := range ps {
			for _, seed := range []uint64{1, 20140215} {
				if err := sameCSR(erDense(n, p, seed), refErDense(n, p, seed)); err != nil {
					t.Fatalf("n=%d p=%v seed=%d: %v", n, p, seed, err)
				}
			}
		}
	}
}

func TestTranspose64(t *testing.T) {
	r := xrand.New(3)
	var a [64]uint64
	for i := range a {
		a[i] = r.Uint64()
	}
	orig := a
	transpose64(&a)
	for row := 0; row < 64; row++ {
		for col := 0; col < 64; col++ {
			if a[row]>>col&1 != orig[col]>>row&1 {
				t.Fatalf("bit (%d, %d) not transposed", row, col)
			}
		}
	}
}

// fingerprint is FNV-1a over N and the CSR arrays, weights by bit pattern.
func fingerprint(g *Graph) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(uint64(g.N))
	for _, r := range g.RowPtr {
		put(uint64(r))
	}
	for _, t := range g.Targets {
		put(uint64(uint32(t)))
	}
	for _, w := range g.Weights {
		put(math.Float64bits(w))
	}
	return h.Sum64()
}

// TestBenchmarkGraphFingerprints pins the two graphs the benchmark's
// shortest-path workloads generate at their default seed (sssp-dense and
// sssp-sparse), as recorded before the dense generator became
// bitset-based.
func TestBenchmarkGraphFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 4M-edge graph")
	}
	for _, c := range []struct {
		n    int
		p    float64
		m    int64
		want uint64
	}{
		{4000, 0.5, 3998931, 0x362a10d0bf6eb9c3},
		{30000, 4e-4, 180104, 0x25bd7afd57a6a881},
	} {
		g := ErdosRenyi(c.n, c.p, 20140215)
		if got := fingerprint(g); g.M() != c.m || got != c.want {
			t.Errorf("G(%d, %v): m = %d, fingerprint %#016x; want m = %d, %#016x", c.n, c.p, g.M(), got, c.m, c.want)
		}
	}
}

// validateFirstMatch is Validate as first written: the same checks in the
// same order, with each reverse entry found by a linear scan of the
// target's row (the first match wins). It costs O(Σ deg²); Validate must
// give the same verdict on every graph.
func validateFirstMatch(g *Graph) error {
	if len(g.RowPtr) != g.N+1 {
		return fmt.Errorf("graph: RowPtr length %d, want %d", len(g.RowPtr), g.N+1)
	}
	if g.RowPtr[0] != 0 || g.RowPtr[g.N] != int64(len(g.Targets)) {
		return fmt.Errorf("graph: RowPtr endpoints %d..%d, want 0..%d",
			g.RowPtr[0], g.RowPtr[g.N], len(g.Targets))
	}
	if len(g.Targets) != len(g.Weights) {
		return fmt.Errorf("graph: %d targets vs %d weights", len(g.Targets), len(g.Weights))
	}
	weight := func(u, v int) (float64, bool) {
		ts, ws := g.Neighbors(u)
		for i, t := range ts {
			if int(t) == v {
				return ws[i], true
			}
		}
		return 0, false
	}
	for v := 0; v < g.N; v++ {
		if g.RowPtr[v] > g.RowPtr[v+1] {
			return fmt.Errorf("graph: RowPtr not monotone at %d", v)
		}
		ts, ws := g.Neighbors(v)
		for i, t := range ts {
			if t < 0 || int(t) >= g.N {
				return fmt.Errorf("graph: edge %d→%d out of range", v, t)
			}
			if int(t) == v {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			if !(ws[i] > 0) || math.IsNaN(ws[i]) {
				return fmt.Errorf("graph: non-positive weight %v on %d→%d", ws[i], v, t)
			}
			if w, ok := weight(int(t), v); !ok || w != ws[i] {
				return fmt.Errorf("graph: asymmetric edge %d→%d", v, t)
			}
		}
	}
	return nil
}

// checkValidateVerdict fails unless Validate and validateFirstMatch agree
// on g: both accept it, or both reject it. The first-match rule scans a
// row before checking its pointers, so on some non-monotone RowPtr it
// panics; that counts as a rejection. Validate checks every row pointer
// first, so where RowPtr is not monotone the two may name different
// faults; otherwise their messages must match too.
func checkValidateVerdict(t *testing.T, name string, g *Graph) (rejected bool) {
	t.Helper()
	got := g.Validate()
	want, panicked := func() (err error, panicked bool) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		return validateFirstMatch(g), false
	}()
	switch {
	case panicked && got == nil:
		t.Fatalf("%s: Validate accepts a graph the first-match rule rejects (by panicking)", name)
	case panicked:
	case (got == nil) != (want == nil):
		t.Fatalf("%s: Validate = %v, first-match rule = %v", name, got, want)
	case got != nil && !strings.Contains(got.Error(), "not monotone") && got.Error() != want.Error():
		t.Fatalf("%s: Validate = %v, first-match rule = %v", name, got, want)
	}
	return got != nil
}

// fromArcs builds a graph from directed arcs in the given order, each row
// keeping its arcs' order, as the DIMACS reader builds one.
func fromArcs(n int, arcs [][3]float64) *Graph {
	deg := make([]int64, n)
	for _, a := range arcs {
		deg[int(a[0])]++
	}
	g := fromDegrees(n, deg)
	fill := make([]int64, n)
	copy(fill, g.RowPtr[:n])
	for _, a := range arcs {
		u := int(a[0])
		g.Targets[fill[u]] = int32(a[1])
		g.Weights[fill[u]] = a[2]
		fill[u]++
	}
	return g
}

func TestValidateMatchesFirstMatchRule(t *testing.T) {
	// Generated graphs: sorted rows, all accepted.
	for _, c := range []struct {
		n int
		p float64
	}{{0, 0.5}, {1, 0.5}, {65, 0.3}, {300, 0.5}, {400, 0.02}, {500, 1}} {
		g := ErdosRenyi(c.n, c.p, 9)
		if checkValidateVerdict(t, fmt.Sprintf("G(%d, %v)", c.n, c.p), g) {
			t.Fatalf("G(%d, %v) rejected", c.n, c.p)
		}
	}
	checkValidateVerdict(t, "grid", Grid(7, 9, 1))

	// Multigraphs from FromEdges (unsorted rows, parallel edges with equal
	// or different weights) and directed arc lists as a DIMACS file gives
	// them (reverse arcs missing, or with another weight). Weights come
	// from a few values so that parallel arcs often tie.
	r := xrand.New(11)
	accepted, rejected := 0, 0
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(12)
		m := r.Intn(3 * n)
		weight := func() float64 { return float64(1+r.Intn(3)) / 4 }
		var g *Graph
		if trial%2 == 0 {
			edges := make([][3]float64, 0, m)
			for k := 0; k < m; k++ {
				u, v := r.Intn(n), r.Intn(n)
				if u == v && trial%4 == 0 {
					continue // mostly no self loops, so symmetry is what decides
				}
				edges = append(edges, [3]float64{float64(u), float64(v), weight()})
			}
			g = FromEdges(n, edges)
		} else {
			arcs := make([][3]float64, 0, 2*m)
			for k := 0; k < m; k++ {
				u, v := r.Intn(n), r.Intn(n)
				if u == v {
					continue
				}
				w := weight()
				arcs = append(arcs, [3]float64{float64(u), float64(v), w})
				if r.Intn(8) != 0 {
					if r.Intn(8) == 0 {
						w = weight()
					}
					arcs = append(arcs, [3]float64{float64(v), float64(u), w})
				}
			}
			r.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
			g = fromArcs(n, arcs)
		}
		if checkValidateVerdict(t, fmt.Sprintf("trial %d", trial), g) {
			rejected++
		} else {
			accepted++
		}
	}
	if accepted < 300 || rejected < 300 {
		t.Fatalf("random graphs: %d accepted, %d rejected; want both verdicts well represented", accepted, rejected)
	}

	// Parallel arcs: equal weights are accepted; weights 1 and 2 both ways
	// are rejected, because every arc is checked against the first reverse
	// arc in row order (any-match would accept them).
	for _, c := range []struct {
		arcs   [][3]float64
		reject bool
	}{
		{[][3]float64{{0, 1, 1}, {0, 1, 1}, {1, 0, 1}}, false},
		{[][3]float64{{0, 1, 1}, {0, 1, 2}, {1, 0, 1}, {1, 0, 2}}, true},
		{[][3]float64{{1, 0, 2}, {0, 1, 1}, {0, 1, 2}, {1, 0, 1}}, true},
	} {
		name := fmt.Sprint("parallel arcs ", c.arcs)
		if got := checkValidateVerdict(t, name, fromArcs(2, c.arcs)); got != c.reject {
			t.Fatalf("%s: rejected = %v, want %v", name, got, c.reject)
		}
	}

	// Parallel arcs 1→0 with weights 2 and 1 inside a long row in
	// descending target order, against a single 0→1 of weight 1: the first
	// of them in row order decides that 0→1 is the asymmetric arc.
	for k1 := 0; k1 < 30; k1 += 3 {
		for k2 := k1 + 1; k2 < 31; k2 += 4 {
			var arcs [][3]float64
			for u, k := 31, 0; k < 31; k++ {
				switch k {
				case k1:
					arcs = append(arcs, [3]float64{1, 0, 2})
				case k2:
					arcs = append(arcs, [3]float64{1, 0, 1})
				default:
					arcs = append(arcs, [3]float64{1, float64(u), 1}, [3]float64{float64(u), 1, 1})
					u--
				}
			}
			arcs = append(arcs, [3]float64{0, 1, 1})
			checkValidateVerdict(t, fmt.Sprintf("parallel arcs at %d, %d in a long row", k1, k2), fromArcs(32, arcs))
		}
	}

	// The corruption cases of TestValidateCatchesCorruption, plus a
	// dropped reverse entry and a changed weight.
	base := ErdosRenyi(50, 0.3, 2)
	corrupt := []func(g *Graph){
		func(g *Graph) { g.Weights[0] = -1 },
		func(g *Graph) { g.Weights[0] = math.NaN() },
		func(g *Graph) { g.Targets[0] = int32(g.N) + 5 },
		func(g *Graph) { g.Targets[0] = -1 },
		func(g *Graph) { g.Targets[0] = 0 },
		func(g *Graph) { g.Weights[len(g.Weights)-1] *= 0.5 },
		func(g *Graph) { g.Targets[3], g.Targets[4] = g.Targets[4], g.Targets[3] },
		func(g *Graph) { g.RowPtr[1], g.RowPtr[2] = g.RowPtr[2], g.RowPtr[1] },
		func(g *Graph) { g.RowPtr[g.N-1], g.RowPtr[g.N-2] = g.RowPtr[g.N-2], g.RowPtr[g.N-1] },
		func(g *Graph) { g.RowPtr = g.RowPtr[:g.N] },
		func(g *Graph) { g.Weights = g.Weights[1:] },
	}
	for k, f := range corrupt {
		g := &Graph{N: base.N, RowPtr: append([]int64(nil), base.RowPtr...),
			Targets: append([]int32(nil), base.Targets...), Weights: append([]float64(nil), base.Weights...)}
		f(g)
		if !checkValidateVerdict(t, fmt.Sprintf("corruption %d", k), g) {
			t.Fatalf("corruption %d accepted", k)
		}
	}
}

func BenchmarkErdosRenyiDense(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = ErdosRenyi(1000, 0.5, uint64(i))
	}
}

func BenchmarkErdosRenyiSparse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = ErdosRenyi(20000, 0.001, uint64(i))
	}
}
