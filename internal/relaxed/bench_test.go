package relaxed

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// BenchmarkLane prices one numeric lane at a standing depth: each
// iteration pushes a batch of uniformly drawn keys and pops a batch, on
// one place over one lane, with the serve path's 32-byte task. Below
// frontCap the sorted front is the whole lane; above it the heap behind
// carries more and more of the traffic, so the rows say at which depth
// the front stops helping (front.go). ns/task covers the push and the
// pop of one task.
func BenchmarkLane(b *testing.B) {
	type task struct {
		due      int64
		id, prio int32
		tenant   uint8
		fin      *int
	}
	for _, batch := range []int{1, 8} {
		for _, depth := range []int{8, 32, 64, 256, 4096} {
			b.Run(fmt.Sprintf("batch=%d/depth=%d", batch, depth), func(b *testing.B) {
				d, err := NewWithNumeric(core.Options[task]{Places: 1, Less: func(x, y task) bool { return x.prio < y.prio }, Seed: 1},
					Config{Lanes: 1, Mode: SampleTwo},
					NumericConfig[task]{Prio: func(v task) int64 { return int64(v.prio) }})
				if err != nil {
					b.Fatal(err)
				}
				rng := xrand.New(7)
				buf := make([]task, batch)
				draw := func() {
					for i := range buf {
						buf[i] = task{prio: int32(rng.Intn(1 << 20))}
					}
				}
				for n := 0; n < depth; n += batch {
					draw()
					d.PushK(0, 0, buf)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					draw()
					if batch == 1 {
						d.Push(0, 0, buf[0])
						buf[0], _ = d.Pop(0)
					} else {
						d.PushK(0, 0, buf)
						d.PopKInto(0, buf)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/task")
			})
		}
	}
}
