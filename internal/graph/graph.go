// Package graph provides the weighted undirected graphs of the paper's
// evaluation (§5.2.1): Erdős–Rényi random graphs G(n, p) with edge weights
// uniformly distributed in ]0, 1], in a compressed sparse row (CSR)
// representation sized for the paper's main configuration (n = 10000,
// p = 0.5 ⇒ ≈25M undirected edges, 50M directed CSR entries).
//
// Generation is stateless-deterministic: the existence and weight of an
// edge {i, j} are pure functions of (seed, i, j), so the dense generator
// builds rows in parallel without materializing an edge list — a row pass
// packs each pair's existence bit, hashed once, into an adjacency bitset,
// a transpose pass mirrors it and counts degrees, and a fill pass mixes
// the weights of the edges that exist — and the same seed always
// reproduces the same graph, bit for bit, which the experiments rely on
// ("we use exactly the same 20 random graphs used in the experiments",
// §5.4.1). Tests pin the bit-identity against the per-pair definition and
// against fingerprints of the benchmark graphs.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/xrand"
)

// Graph is an undirected weighted graph in CSR form. For every undirected
// edge {u, v} both directed entries (u→v and v→u) are stored with the
// same weight. Nodes are 0-based.
type Graph struct {
	// N is the number of nodes.
	N int
	// RowPtr has length N+1; the edges of node v occupy indices
	// [RowPtr[v], RowPtr[v+1]) of Targets and Weights.
	RowPtr []int64
	// Targets holds the neighbour of each directed edge entry.
	Targets []int32
	// Weights holds the corresponding edge weights, in ]0, 1] for the
	// random generators.
	Weights []float64
}

// M returns the number of undirected edges.
func (g *Graph) M() int64 { return int64(len(g.Targets)) / 2 }

// Degree returns the number of neighbours of v.
func (g *Graph) Degree(v int) int { return int(g.RowPtr[v+1] - g.RowPtr[v]) }

// Neighbors returns the targets and weights of v's edges as subslices of
// the CSR arrays (not to be mutated).
func (g *Graph) Neighbors(v int) ([]int32, []float64) {
	lo, hi := g.RowPtr[v], g.RowPtr[v+1]
	return g.Targets[lo:hi], g.Weights[lo:hi]
}

// Validate checks structural invariants: monotone row pointers, in-range
// targets, positive weights, no self loops, and symmetry of adjacency
// (each directed entry v→t has a reverse entry with equal weight; where t's
// row holds several entries t→v, the first of them in row order is the
// reverse). Rows are checked in order and each row is read in target
// order through a cursor that only moves forward, so the symmetry check is
// one merge: Validate costs O(m) on rows already sorted by target, as the
// generators make them, and O(m log d) for maximum degree d otherwise.
func (g *Graph) Validate() error {
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
	// Every row must be a valid slice before any row is walked.
	for v := 0; v < g.N; v++ {
		if g.RowPtr[v] > g.RowPtr[v+1] {
			return fmt.Errorf("graph: RowPtr not monotone at %d", v)
		}
	}
	order, next := g.targetOrder(), make([]int32, g.N)
	for v := 0; v < g.N; v++ {
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
			if w, ok := g.reverseWeight(order, next, int(t), v); !ok || w != ws[i] {
				return fmt.Errorf("graph: asymmetric edge %d→%d", v, t)
			}
		}
	}
	return nil
}

// targetOrder returns nil when every row's targets are non-decreasing, as
// the generators make them and a DIMACS round trip keeps them. Otherwise it returns, per row, the entry offsets stably sorted by
// target, so that among equal targets the first in row order comes first.
func (g *Graph) targetOrder() []int32 {
	var order []int32
	for v := 0; v < g.N; v++ {
		lo, hi := g.RowPtr[v], g.RowPtr[v+1]
		ts := g.Targets[lo:hi]
		if slices.IsSorted(ts) {
			continue
		}
		if order == nil {
			order = make([]int32, len(g.Targets))
			for u := 0; u < g.N; u++ {
				for k := range g.RowPtr[u+1] - g.RowPtr[u] {
					order[g.RowPtr[u]+k] = int32(k)
				}
			}
		}
		slices.SortStableFunc(order[lo:hi], func(a, b int32) int { return cmp.Compare(ts[a], ts[b]) })
	}
	return order
}

// reverseWeight returns the weight of the first entry u→v in u's row,
// walking the row in target order (through order when it is non-nil) from
// the cursor next[u]. Validate asks with non-decreasing v for each u, so
// the entries the cursor skips, with targets below v, match no later query.
func (g *Graph) reverseWeight(order, next []int32, u, v int) (float64, bool) {
	lo := g.RowPtr[u]
	d := int32(g.RowPtr[u+1] - lo)
	at := func(k int32) int64 {
		if order == nil {
			return lo + int64(k)
		}
		return lo + int64(order[lo+int64(k)])
	}
	k := next[u]
	for k < d && int(g.Targets[at(k)]) < v {
		k++
	}
	next[u] = k
	if k < d && int(g.Targets[at(k)]) == v {
		return g.Weights[at(k)], true
	}
	return 0, false
}

// pairHash derives the deterministic 64-bit randomness for pair {i, j}
// with i < j. Edge {i, j} exists under probability p when the top 53 bits
// of the hash, read as a uniform in [0, 1), fall below p.
func pairHash(seed uint64, i, j int) uint64 {
	sm := xrand.NewSplitMix64(seed ^ (uint64(i)<<32 | uint64(uint32(j))))
	return sm.Next()
}

// pairWeight returns the weight in ]0, 1] of an existing edge with pair
// hash h, from a second, independent mix.
func pairWeight(h uint64) float64 {
	return 1.0 - float64(xrand.NewSplitMix64(h).Next()>>11)*(1.0/(1<<53))
}

// ErdosRenyi generates G(n, p) with uniform ]0, 1] weights. For dense p it
// runs the stateless bitset construction; for sparse p (expected degree
// below a threshold) it uses geometric skipping over the pair index space,
// which costs O(m) rather than O(n²).
func ErdosRenyi(n int, p float64, seed uint64) *Graph {
	if n < 0 {
		panic("graph: negative n")
	}
	if p < 0 || p > 1 {
		panic("graph: p outside [0,1]")
	}
	if p > 0.05 {
		return erDense(n, p, seed)
	}
	return erSparse(n, p, seed)
}

// erDense is the stateless dense generator. Because edge randomness is a
// pure function of (seed, i, j), rows can be built independently. Three
// passes over an n × ⌈n/64⌉ adjacency bitset hash each pair {i < j} once
// for existence, and mix a weight only for the edges that exist:
//
//  1. Row pass, row-parallel: row i tests its pairs j > i and packs the
//     existence bits, 64 per word, into its upper words.
//  2. Transpose pass, parallel over 64-row blocks: block b mirrors column
//     word b of the rows above it into its own lower words, 64 × 64 bits
//     at a time, and counts its rows' degrees. A block writes only its own
//     rows and reads only upper words, which no other block writes.
//  3. Fill pass, row-parallel: row i walks its set bits in column order,
//     so targets come out sorted, and recomputes each arc's weight.
//
// The graph is bit-identical to the one the per-pair definition gives (the
// reference in graph_test.go), for every (n, p, seed).
func erDense(n int, p float64, seed uint64) *Graph {
	words := (n + 63) / 64
	adj := make([]uint64, n*words)
	// u < p with u = (h>>11)·2⁻⁵³ holds exactly when the integer h>>11 is
	// below ⌈p·2⁵³⌉ (p·2⁵³ is exact), so the sign bit of h>>11 − limit is
	// the existence bit.
	limit := uint64(math.Ceil(p * (1 << 53)))
	parallelFor(n, 64, func(i int) {
		row := adj[i*words : (i+1)*words]
		for w := (i + 1) >> 6; w < words; w++ {
			var word uint64
			for j := max(w<<6, i+1); j < min(w<<6+64, n); j++ {
				word |= (pairHash(seed, i, j)>>11 - limit) >> 63 << (j & 63)
			}
			row[w] = word
		}
	})
	deg := make([]int64, n)
	parallelFor(words, 1, func(b int) {
		rows := min(64, n-b<<6)
		var blk [64]uint64
		for c := 0; c <= b; c++ {
			for r := range blk {
				blk[r] = 0
				if i := c<<6 + r; i < n {
					blk[r] = adj[i*words+b]
				}
			}
			transpose64(&blk)
			for k := 0; k < rows; k++ {
				adj[(b<<6+k)*words+c] |= blk[k]
			}
		}
		for k := 0; k < rows; k++ {
			i := b<<6 + k
			for _, word := range adj[i*words : (i+1)*words] {
				deg[i] += int64(bits.OnesCount64(word))
			}
		}
	})
	g := fromDegrees(n, deg)
	parallelFor(n, 64, func(i int) {
		pos := g.RowPtr[i]
		for w, word := range adj[i*words : (i+1)*words] {
			for ; word != 0; word &= word - 1 {
				j := w<<6 | bits.TrailingZeros64(word)
				g.Targets[pos] = int32(j)
				g.Weights[pos] = pairWeight(pairHash(seed, min(i, j), max(i, j)))
				pos++
			}
		}
	})
	return g
}

// transpose64 transposes a 64 × 64 bit matrix in place, where row r is
// a[r] and column c is its bit c: it swaps the off-diagonal halves of each
// 2j × 2j block for j = 32, 16, …, 1 (Hacker's Delight, §7-3).
func transpose64(a *[64]uint64) {
	for j, m := 32, uint64(0x00000000FFFFFFFF); j != 0; j, m = j>>1, m^m<<(j>>1) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k+j]) & m
			a[k] ^= t << j
			a[k+j] ^= t
		}
	}
}

// parallelFor applies fn to every index in [0, n) using all cores; the
// workers claim indices chunk at a time.
func parallelFor(n, chunk int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// erSparse samples edges by geometric skipping: successive selected pair
// indices differ by ~Geom(p), visiting only expected m pairs.
func erSparse(n int, p float64, seed uint64) *Graph {
	type edge struct {
		u, v int32
		w    float64
	}
	var edges []edge
	if p > 0 && n > 1 {
		r := xrand.New(seed)
		total := int64(n) * int64(n-1) / 2
		logq := math.Log1p(-p)
		idx := int64(-1)
		for {
			// Skip ahead by 1 + Geom(p).
			u := r.Float64Open()
			skip := int64(math.Floor(math.Log(u)/logq)) + 1
			if skip < 1 {
				skip = 1
			}
			idx += skip
			if idx >= total {
				break
			}
			i, j := pairFromIndex(idx, n)
			w := r.Float64Open()
			edges = append(edges, edge{int32(i), int32(j), w})
		}
	}
	deg := make([]int64, n)
	for _, e := range edges {
		deg[e.u]++
		deg[e.v]++
	}
	g := fromDegrees(n, deg)
	fill := make([]int64, n)
	copy(fill, g.RowPtr[:n])
	for _, e := range edges {
		g.Targets[fill[e.u]] = e.v
		g.Weights[fill[e.u]] = e.w
		fill[e.u]++
		g.Targets[fill[e.v]] = e.u
		g.Weights[fill[e.v]] = e.w
		fill[e.v]++
	}
	return g
}

// pairFromIndex maps a linear index over the upper-triangular pair space
// to the pair (i, j), i < j, using row-wise enumeration.
func pairFromIndex(idx int64, n int) (int, int) {
	// Row i contains n-1-i pairs; find i by solving the prefix sum.
	// Prefix(i) = i*n - i*(i+1)/2. Solve smallest i with Prefix(i+1) > idx
	// via the quadratic formula, then fix up.
	nf := float64(n)
	i := int((2*nf - 1 - math.Sqrt((2*nf-1)*(2*nf-1)-8*float64(idx))) / 2)
	if i < 0 {
		i = 0
	}
	for prefixPairs(i+1, n) <= idx {
		i++
	}
	for i > 0 && prefixPairs(i, n) > idx {
		i--
	}
	j := i + 1 + int(idx-prefixPairs(i, n))
	return i, j
}

func prefixPairs(i int, n int) int64 {
	return int64(i)*int64(n) - int64(i)*int64(i+1)/2
}

// fromDegrees allocates a graph with the given per-node entry counts.
func fromDegrees(n int, deg []int64) *Graph {
	g := &Graph{N: n, RowPtr: make([]int64, n+1)}
	for i := 0; i < n; i++ {
		g.RowPtr[i+1] = g.RowPtr[i] + deg[i]
	}
	m := g.RowPtr[n]
	g.Targets = make([]int32, m)
	g.Weights = make([]float64, m)
	return g
}

// Grid generates an r×c 4-neighbour grid with uniform ]0, 1] weights;
// node (y, x) has index y*c + x. Used by the examples.
func Grid(rows, cols int, seed uint64) *Graph {
	n := rows * cols
	r := xrand.New(seed)
	deg := make([]int64, n)
	at := func(y, x int) int { return y*cols + x }
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			if x+1 < cols {
				deg[at(y, x)]++
				deg[at(y, x+1)]++
			}
			if y+1 < rows {
				deg[at(y, x)]++
				deg[at(y+1, x)]++
			}
		}
	}
	g := fromDegrees(n, deg)
	fill := make([]int64, n)
	copy(fill, g.RowPtr[:n])
	add := func(u, v int, w float64) {
		g.Targets[fill[u]] = int32(v)
		g.Weights[fill[u]] = w
		fill[u]++
	}
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			if x+1 < cols {
				w := r.Float64Open()
				add(at(y, x), at(y, x+1), w)
				add(at(y, x+1), at(y, x), w)
			}
			if y+1 < rows {
				w := r.Float64Open()
				add(at(y, x), at(y+1, x), w)
				add(at(y+1, x), at(y, x), w)
			}
		}
	}
	return g
}

// FromEdges builds a graph from an explicit undirected edge list
// (deduplication is the caller's responsibility). Used by tests and
// examples that need specific shapes.
func FromEdges(n int, edges [][3]float64) *Graph {
	deg := make([]int64, n)
	for _, e := range edges {
		deg[int(e[0])]++
		deg[int(e[1])]++
	}
	g := fromDegrees(n, deg)
	fill := make([]int64, n)
	copy(fill, g.RowPtr[:n])
	for _, e := range edges {
		u, v, w := int(e[0]), int(e[1]), e[2]
		g.Targets[fill[u]] = int32(v)
		g.Weights[fill[u]] = w
		fill[u]++
		g.Targets[fill[v]] = int32(u)
		g.Weights[fill[v]] = w
		fill[v]++
	}
	return g
}
