package pq

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func intLess(a, b int) bool { return a < b }

func makers() map[string]func() Queue[int] {
	return map[string]func() Queue[int]{
		"BinHeap": func() Queue[int] { return NewBinHeap(intLess) },
		"KeyHeap": func() Queue[int] { return keyedInts{NewKeyHeap[int]()} },
		// Fresh, a KeyWindow is its fallback heap; the suite's queues
		// mostly stay below the size at which the band table is built, so
		// the second maker hands it out with the bands already in use.
		"KeyWindow":        func() Queue[int] { return keyedInts{NewKeyWindow[int]()} },
		"KeyWindow-banded": func() Queue[int] { return keyedInts{bandedWindow()} },
		// One band per value over the test domain (int16, shifted to be
		// non-negative): at that resolution the bucket queue is an exact
		// priority queue and must pass the whole generic suite.
		"BucketQueue-exact": func() Queue[int] {
			return NewBucketQueue[int](1<<16, func(v int) int { return v + 32768 })
		},
	}
}

func TestEmpty(t *testing.T) {
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			if q.Len() != 0 {
				t.Fatalf("fresh queue Len = %d", q.Len())
			}
			if _, ok := q.Pop(); ok {
				t.Fatal("Pop on empty returned ok")
			}
			if _, ok := q.Peek(); ok {
				t.Fatal("Peek on empty returned ok")
			}
		})
	}
}

func TestSingle(t *testing.T) {
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			q.Push(42)
			if v, ok := q.Peek(); !ok || v != 42 {
				t.Fatalf("Peek = %v,%v", v, ok)
			}
			if v, ok := q.Pop(); !ok || v != 42 {
				t.Fatalf("Pop = %v,%v", v, ok)
			}
			if q.Len() != 0 {
				t.Fatalf("Len after drain = %d", q.Len())
			}
		})
	}
}

func TestSortedDrain(t *testing.T) {
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			r := xrand.New(1)
			const n = 2000
			input := make([]int, n)
			for i := range input {
				input[i] = r.Intn(500) // duplicates on purpose
				q.Push(input[i])
			}
			sort.Ints(input)
			for i, want := range input {
				got, ok := q.Pop()
				if !ok {
					t.Fatalf("queue empty after %d pops, want %d", i, n)
				}
				if got != want {
					t.Fatalf("pop %d = %d, want %d", i, got, want)
				}
			}
			if _, ok := q.Pop(); ok {
				t.Fatal("queue not empty after full drain")
			}
		})
	}
}

func TestInterleavedAgainstOracle(t *testing.T) {
	// Property: under any interleaving of pushes and pops, both heaps
	// return exactly the values a sorted-slice oracle returns.
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			f := func(ops []int16, seed uint64) bool {
				q := mk()
				var oracle []int
				r := xrand.New(seed)
				for _, op := range ops {
					if op >= 0 || len(oracle) == 0 {
						v := int(op)
						q.Push(v)
						oracle = append(oracle, v)
						sort.Ints(oracle)
					} else {
						got, ok := q.Pop()
						if !ok || got != oracle[0] {
							return false
						}
						oracle = oracle[1:]
					}
					if q.Len() != len(oracle) {
						return false
					}
					_ = r
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestClear(t *testing.T) {
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			for i := 0; i < 100; i++ {
				q.Push(i)
			}
			q.Clear()
			if q.Len() != 0 {
				t.Fatalf("Len after Clear = %d", q.Len())
			}
			q.Push(7)
			if v, ok := q.Pop(); !ok || v != 7 {
				t.Fatalf("Pop after Clear = %v,%v", v, ok)
			}
		})
	}
}

func TestCrossCheckHeaps(t *testing.T) {
	// The binary heap and the 4-ary KeyHeap share no code and
	// must agree on every pop across a long random mixed workload.
	bh := NewBinHeap(intLess)
	kh := keyedInts{NewKeyHeap[int]()}
	r := xrand.New(99)
	for step := 0; step < 20000; step++ {
		if r.Intn(3) != 0 || bh.Len() == 0 {
			v := r.Intn(1 << 20)
			bh.Push(v)
			kh.Push(v)
		} else {
			a, aok := bh.Pop()
			b, bok := kh.Pop()
			if aok != bok || a != b {
				t.Fatalf("step %d: BinHeap=(%v,%v) KeyHeap=(%v,%v)", step, a, aok, b, bok)
			}
		}
	}
}

func TestNewBinHeapFrom(t *testing.T) {
	r := xrand.New(5)
	for _, n := range []int{0, 1, 2, 3, 10, 257} {
		items := make([]int, n)
		want := make([]int, n)
		for i := range items {
			items[i] = r.Intn(1000)
			want[i] = items[i]
		}
		sort.Ints(want)
		h := NewBinHeapFrom(intLess, items)
		for i := 0; i < n; i++ {
			got, ok := h.Pop()
			if !ok || got != want[i] {
				t.Fatalf("n=%d pop %d = %v,%v want %v", n, i, got, ok, want[i])
			}
		}
	}
}

func TestStealHalf(t *testing.T) {
	r := xrand.New(6)
	for _, n := range []int{0, 1, 2, 3, 5, 100, 1001} {
		h := NewBinHeap(intLess)
		all := map[int]int{}
		for i := 0; i < n; i++ {
			v := r.Intn(100)
			h.Push(v)
			all[v]++
		}
		loot := h.StealHalf()
		if n < 2 && loot != nil {
			t.Fatalf("n=%d StealHalf returned loot %v", n, loot)
		}
		if n >= 2 {
			if len(loot) != n/2 {
				t.Fatalf("n=%d stole %d, want %d", n, len(loot), n/2)
			}
		}
		// Union of remaining + loot must equal the original multiset, and
		// the remaining heap must still pop in sorted order.
		for _, v := range loot {
			all[v]--
		}
		prev := -1
		for {
			v, ok := h.Pop()
			if !ok {
				break
			}
			if v < prev {
				t.Fatalf("n=%d victim heap order violated: %d after %d", n, v, prev)
			}
			prev = v
			all[v]--
		}
		for v, c := range all {
			if c != 0 {
				t.Fatalf("n=%d element %d count off by %d", n, v, c)
			}
		}
	}
}

func TestStealHalfLootHeapifies(t *testing.T) {
	h := NewBinHeap(intLess)
	r := xrand.New(7)
	for i := 0; i < 1000; i++ {
		h.Push(r.Intn(1 << 16))
	}
	loot := h.StealHalf()
	lh := NewBinHeapFrom(intLess, loot)
	prev := -1
	for {
		v, ok := lh.Pop()
		if !ok {
			break
		}
		if v < prev {
			t.Fatalf("loot heap order violated: %d after %d", v, prev)
		}
		prev = v
	}
}

func BenchmarkBinHeapPushPop(b *testing.B) {
	h := NewBinHeap(intLess)
	r := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Push(r.Intn(1 << 20))
		if h.Len() > 1024 {
			for h.Len() > 512 {
				h.Pop()
			}
		}
	}
}
