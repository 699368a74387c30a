// Package sssp implements the single-source shortest path algorithms of
// Section 5: the sequential Dijkstra baseline, the paper's task-parallel
// SSSP (Listing 5) on top of the priority scheduler, and — as an
// additional baseline not evaluated in the paper but standard in the SSSP
// literature it cites — sequential Δ-stepping.
//
// In the parallel algorithm every pending node relaxation is one task,
// prioritized by the node's tentative distance (smaller first). When a
// relaxation improves a neighbour's distance it CASes the distance and
// spawns a new task for the neighbour. Improving an already-pending node
// does not decrease-key; it re-spawns, and the superseded task is detected
// by the staleness predicate (current distance ≠ task distance) and
// lazily eliminated by the data structures (§5.1).
package sssp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/pq"
	"repro/internal/sched"
)

// Inf marks unreachable nodes in distance vectors.
var Inf = math.Inf(1)

// Dijkstra computes exact shortest path distances from src with a
// lazy-deletion heap. It returns the distance vector and the number of
// node relaxations performed, which equals the number of reachable
// nodes — by Dijkstra's invariant every relaxed node is settled, so this
// is the "only useful work" baseline the parallel versions are measured
// against (§5.5: "ideally, a parallel implementation of SSSP relaxes
// each node exactly once"). The heap is keyed by the distance's bits,
// which order like the distances themselves (see distKey), so its
// comparisons are integer compares, not calls.
func Dijkstra(g *graph.Graph, src int) ([]float64, int64) {
	dist := make([]float64, g.N)
	for i := range dist {
		dist[i] = Inf
	}
	h := pq.NewKeyHeap[int32]()
	dist[src] = 0
	h.Push(pq.Keyed[int32]{Key: 0, V: int32(src)})
	var relaxed int64
	for {
		e, ok := h.Pop()
		if !ok {
			break
		}
		d := math.Float64frombits(uint64(e.Key))
		if d != dist[e.V] {
			continue // lazily deleted: superseded by a better path
		}
		relaxed++
		ts, ws := g.Neighbors(int(e.V))
		for i, t := range ts {
			if nd := d + ws[i]; nd < dist[t] {
				dist[t] = nd
				h.Push(pq.Keyed[int32]{Key: int64(math.Float64bits(nd)), V: t})
			}
		}
	}
	return dist, relaxed
}

// NodeTask is one pending node relaxation: the task payload of the
// parallel algorithm. Priority is the tentative distance at spawn time.
type NodeTask struct {
	Node int32
	Dist float64
}

// distKey is the scheduler's numeric projection of a task's priority.
// The IEEE-754 bit patterns of non-negative floats order like the floats
// themselves, and Dijkstra's distances are never negative, so the bits
// of Dist are a key that agrees with Less exactly.
func distKey(t NodeTask) int64 { return int64(math.Float64bits(t.Dist)) }

// Options configures a parallel SSSP run.
type Options struct {
	// Places is the number of workers (the paper's P).
	Places int
	// Strategy selects the scheduling data structure.
	Strategy sched.Strategy
	// K is the relaxation parameter (the paper's experiments use 512);
	// the centralized structure's kmax is 512, or K when K is larger.
	K int
	// Seed drives scheduling randomness.
	Seed uint64
	// SpinWork adds artificial computation to every executed relaxation
	// (units of a small arithmetic loop). Zero means the paper's natural
	// fine granularity. Used by the GRAN experiment to reproduce §5.5's
	// observation that the minimum k required to match work-stealing
	// depends on task granularity.
	SpinWork int
}

// Result of a parallel SSSP run.
type Result struct {
	// Dist is the computed distance vector (exact: the algorithm only
	// terminates once no improvement is pending).
	Dist []float64
	// NodesRelaxed counts executed node relaxations, the paper's useful+
	// useless work metric (Figures 4 and 5). Dead tasks that were caught
	// by the initial distance check or eliminated inside the data
	// structure are not counted, matching the paper's accounting.
	NodesRelaxed int64
	// Elapsed is the wall-clock time of the scheduled computation.
	Elapsed time.Duration
	// Sched carries the scheduler's run statistics.
	Sched sched.RunStats
}

// Solver is a reusable parallel SSSP instance: the scheduler (and its
// data structure) is built once and solves any number of sources and
// graphs of up to its node count, each Solve resetting the structure
// and keeping its storage. Parallel draws its solvers from a pool, so
// repeated one-shot calls of one shape share them too.
type Solver struct {
	opt  Options
	s    *sched.Scheduler[NodeTask]
	dist []atomic.Uint64 // Float64bits of the tentative distances
	g    *graph.Graph
	// relaxed is written by every place, once per useful task; the pads
	// keep it off the line of the fields above, which every task reads.
	_       [64]byte
	relaxed atomic.Int64
	_       [56]byte
}

// NewSolver constructs a solver for graphs with up to n nodes.
func NewSolver(n int, opt Options) (*Solver, error) {
	if opt.K < 0 {
		opt.K = 0
	}
	sv := &Solver{opt: opt, dist: make([]atomic.Uint64, n)}
	cfg := sched.Config[NodeTask]{
		Places:   opt.Places,
		Strategy: opt.Strategy,
		K:        opt.K,
		Seed:     opt.Seed,
		Less:     func(a, b NodeTask) bool { return a.Dist < b.Dist },
		Priority: distKey,
		// A task is dead iff the node's distance moved on since spawn
		// (§5.1): it was superseded by a re-inserted improvement.
		Stale:   func(t NodeTask) bool { return sv.load(t.Node) != t.Dist },
		Execute: sv.relaxNode,
	}
	s, err := sched.New(cfg)
	if err != nil {
		return nil, err
	}
	sv.s = s
	return sv, nil
}

func (sv *Solver) load(node int32) float64 {
	return math.Float64frombits(sv.dist[node].Load())
}

// relaxNode is Listing 5.
func (sv *Solver) relaxNode(ctx *sched.Ctx[NodeTask], t NodeTask) {
	d := sv.load(t.Node)
	if d != t.Dist {
		return // dead task: distance improved in the meantime
	}
	sv.relaxed.Add(1)
	if sv.opt.SpinWork > 0 {
		spin(sv.opt.SpinWork)
	}
	ts, ws := sv.g.Neighbors(int(t.Node))
	for i, target := range ts {
		nd := d + ws[i]
		for {
			oldBits := sv.dist[target].Load()
			old := math.Float64frombits(oldBits)
			if old <= nd {
				break
			}
			if sv.dist[target].CompareAndSwap(oldBits, math.Float64bits(nd)) {
				ctx.Spawn(NodeTask{Node: target, Dist: nd})
				break
			}
		}
	}
}

// Solve runs the parallel algorithm on g from src, with the scheduling
// randomness of Options.Seed. g must have at most the node count the
// solver was built with.
func (sv *Solver) Solve(g *graph.Graph, src int) (Result, error) {
	if g.N > len(sv.dist) {
		return Result{}, fmt.Errorf("sssp: graph has %d nodes, solver built for %d", g.N, len(sv.dist))
	}
	if src < 0 || src >= g.N {
		return Result{}, fmt.Errorf("sssp: source %d out of range [0, %d)", src, g.N)
	}
	sv.g = g
	infBits := math.Float64bits(Inf)
	for i := 0; i < g.N; i++ {
		sv.dist[i].Store(infBits)
	}
	sv.dist[src].Store(math.Float64bits(0))
	sv.relaxed.Store(0)

	st, err := sv.s.RunSeed(sv.opt.Seed, NodeTask{Node: int32(src), Dist: 0})
	sv.g = nil // a solver kept for reuse must not pin the graph
	if err != nil {
		return Result{}, err
	}
	out := make([]float64, g.N)
	for i := range out {
		out[i] = math.Float64frombits(sv.dist[i].Load())
	}
	return Result{
		Dist:         out,
		NodesRelaxed: sv.relaxed.Load(),
		Elapsed:      st.Elapsed,
		Sched:        st,
	}, nil
}

// spinSink defeats dead-code elimination of the artificial work loop.
var spinSink atomic.Uint64

// spin burns roughly `units` small arithmetic steps of CPU time.
func spin(units int) {
	x := uint64(units) | 1
	for i := 0; i < units*16; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Store(x)
}

// shape is what a pooled Solver must match, besides holding enough
// nodes, for a Parallel call to reuse it: everything in Options but the
// seed, which every Solve applies afresh.
type shape struct {
	places   int
	strategy sched.Strategy
	k        int
	spinWork int
}

// pools holds one pool of idle solvers per shape.
var pools = struct {
	sync.Mutex
	m map[shape]*sync.Pool
}{m: map[shape]*sync.Pool{}}

// poolFor returns the pool of solvers of shape sh.
func poolFor(sh shape) *sync.Pool {
	pools.Lock()
	defer pools.Unlock()
	p := pools.m[sh]
	if p == nil {
		p = new(sync.Pool)
		pools.m[sh] = p
	}
	return p
}

// Parallel is the one-shot form of NewSolver + Solve. It takes an idle
// solver of opt's shape and at least g.N nodes from a pool (building one
// when there is none), solves, and returns it to the pool, so a
// repeated call reuses the scheduler, the structure's storage and the
// distance array, and allocates little beyond Result.Dist. It is safe
// for concurrent use.
func Parallel(g *graph.Graph, src int, opt Options) (Result, error) {
	opt.K = max(opt.K, 0)
	pool := poolFor(shape{opt.Places, opt.Strategy, opt.K, opt.SpinWork})
	sv, _ := pool.Get().(*Solver)
	if sv == nil || len(sv.dist) < g.N {
		var err error
		if sv, err = NewSolver(g.N, opt); err != nil {
			return Result{}, err
		}
	}
	sv.opt.Seed = opt.Seed
	res, err := sv.Solve(g, src)
	pool.Put(sv)
	return res, err
}

// DeltaStepping computes shortest paths with the sequential Δ-stepping
// algorithm of Meyer & Sanders (cited by the paper as prior art on SSSP
// work bounds, [15]). Nodes are kept in distance buckets of width delta;
// light edges (< delta) are relaxed to a fixed point within a bucket,
// heavy edges once afterwards. Returns distances and the number of node
// relaxations (≥ the reachable count: re-relaxations within a bucket are
// the algorithm's own useless-work overhead, which the harness contrasts
// with the priority-scheduled versions).
func DeltaStepping(g *graph.Graph, src int, delta float64) ([]float64, int64) {
	if delta <= 0 {
		delta = 0.1
	}
	dist := make([]float64, g.N)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	buckets := map[int][]int32{0: {int32(src)}}
	inBucket := make([]int, g.N)
	for i := range inBucket {
		inBucket[i] = -1
	}
	inBucket[src] = 0
	var relaxed int64
	bucketOf := func(d float64) int { return int(d / delta) }

	for bi := 0; len(buckets) > 0; bi++ {
		nodes, ok := buckets[bi]
		if !ok {
			continue
		}
		delete(buckets, bi)
		var settledHere []int32
		for len(nodes) > 0 {
			cur := nodes
			nodes = nil
			for _, v := range cur {
				if inBucket[v] != bi {
					continue // moved to a later (or re-queued) bucket
				}
				d := dist[v]
				if bucketOf(d) != bi {
					continue
				}
				relaxed++
				settledHere = append(settledHere, v)
				inBucket[v] = -2 // settled for this bucket's light phase
				ts, ws := g.Neighbors(int(v))
				for i, t := range ts {
					if ws[i] >= delta {
						continue // heavy edges after the bucket empties
					}
					if nd := d + ws[i]; nd < dist[t] {
						dist[t] = nd
						nb := bucketOf(nd)
						inBucket[t] = nb
						if nb == bi {
							nodes = append(nodes, t)
						} else {
							buckets[nb] = append(buckets[nb], t)
						}
					}
				}
			}
		}
		// Heavy edges of everything settled in this bucket.
		for _, v := range settledHere {
			d := dist[v]
			ts, ws := g.Neighbors(int(v))
			for i, t := range ts {
				if ws[i] < delta {
					continue
				}
				if nd := d + ws[i]; nd < dist[t] {
					dist[t] = nd
					nb := bucketOf(nd)
					inBucket[t] = nb
					buckets[nb] = append(buckets[nb], t)
				}
			}
		}
		if len(buckets) == 0 {
			break
		}
	}
	return dist, relaxed
}

// Equal reports whether two distance vectors agree within eps (treating
// two infinities as equal). Used by tests and the harness to verify every
// parallel run against Dijkstra.
func Equal(a, b []float64, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ai, bi := a[i], b[i]
		if math.IsInf(ai, 1) && math.IsInf(bi, 1) {
			continue
		}
		if math.Abs(ai-bi) > eps {
			return false
		}
	}
	return true
}
