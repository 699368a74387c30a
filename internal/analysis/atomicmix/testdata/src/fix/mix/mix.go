// Fixture for the atomicmix analyzer: package-level sync/atomic
// functions on plain words (flagged, and under the ignore hatch),
// beside the typed atomics and plain accesses it leaves alone.
package mix

import "sync/atomic"

type gauge struct {
	n     int64
	typed atomic.Int64
}

func (g *gauge) bump() int64 {
	return atomic.AddInt64(&g.n, 1) // want "sync/atomic.AddInt64 operates on a plain word"
}

func (g *gauge) claim() bool {
	return atomic.CompareAndSwapInt64(&g.n, 0, 1) // want "sync/atomic.CompareAndSwapInt64 operates on a plain word"
}

func (g *gauge) read() int64 {
	return g.n
}

func (g *gauge) bumpTyped() int64 {
	g.typed.Store(g.typed.Load())
	return g.typed.Add(1)
}

func (g *gauge) drain() int64 {
	//schedlint:ignore fixture: interop with a C-shaped word
	return atomic.LoadInt64(&g.n)
}

var hits int64

func record() {
	atomic.StoreInt64(&hits, 1) // want "sync/atomic.StoreInt64 operates on a plain word"
}
