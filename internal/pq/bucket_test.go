package pq

import (
	"sort"
	"testing"

	"repro/internal/xrand"
)

// TestBucketBandOrdering pins the multiresolution contract at a coarse
// band width: every pop comes from the lowest occupied band (so pops
// are sorted by band even when they are not sorted by value), and the
// LIFO-within-band order is observable.
func TestBucketBandOrdering(t *testing.T) {
	const width = 10
	q := NewBucketQueue[int](10, func(v int) int { return v / width })
	r := xrand.New(7)
	var input []int
	for i := 0; i < 1000; i++ {
		v := r.Intn(100)
		input = append(input, v)
		q.Push(v)
	}
	prevBand := -1
	counts := map[int]int{}
	for range input {
		v, ok := q.Pop()
		if !ok {
			t.Fatal("queue ran dry before all pushes came back")
		}
		if v/width < prevBand {
			t.Fatalf("pop from band %d after band %d", v/width, prevBand)
		}
		prevBand = v / width
		counts[v]++
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue not empty after full drain")
	}
	want := map[int]int{}
	for _, v := range input {
		want[v]++
	}
	for v, n := range want {
		if counts[v] != n {
			t.Fatalf("value %d came back %d times, want %d", v, counts[v], n)
		}
	}
}

// TestBucketLIFOWithinBand checks the stack order inside one band.
func TestBucketLIFOWithinBand(t *testing.T) {
	q := NewBucketQueue[int](4, func(v int) int { return v / 100 })
	for _, v := range []int{10, 11, 12} { // all band 0
		q.Push(v)
	}
	for _, want := range []int{12, 11, 10} {
		if v, ok := q.Pop(); !ok || v != want {
			t.Fatalf("Pop = %v,%v want %d", v, ok, want)
		}
	}
}

// TestBucketClamp pushes projections outside [0, bands): they must land
// in the edge bands instead of corrupting the structure.
func TestBucketClamp(t *testing.T) {
	q := NewBucketQueue[int](4, func(v int) int { return v })
	q.Push(-5) // clamps to band 0
	q.Push(99) // clamps to band 3
	q.Push(2)
	for _, want := range []int{-5, 2, 99} {
		if v, ok := q.Pop(); !ok || v != want {
			t.Fatalf("Pop = %v,%v want %d", v, ok, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

// TestBucketMinBands pins the bands<1 floor.
func TestBucketMinBands(t *testing.T) {
	q := NewBucketQueue[int](0, func(v int) int { return v })
	if len(q.elems) != 1 {
		t.Fatalf("bands = %d, want 1", len(q.elems))
	}
	q.Push(3)
	q.Push(9)
	if v, ok := q.Pop(); !ok || v != 9 {
		t.Fatalf("single-band Pop = %v,%v want LIFO 9", v, ok)
	}
}

// TestBucketOccupancyInvariant hammers the mask bookkeeping with a long
// random push/pop/clear mix and cross-checks Len, emptiness and the
// band-sorted pop order against a per-band oracle.
func TestBucketOccupancyInvariant(t *testing.T) {
	const bands = 130 // > 2 occupancy words, with a partial last word
	q := NewBucketQueue[int](bands, func(v int) int { return v })
	oracle := map[int]int{} // band → count
	size := 0
	r := xrand.New(42)
	for step := 0; step < 50000; step++ {
		switch {
		case r.Intn(100) == 0:
			q.Clear()
			oracle = map[int]int{}
			size = 0
		case r.Intn(3) != 0 || size == 0:
			v := r.Intn(bands)
			q.Push(v)
			oracle[v]++
			size++
		default:
			v, ok := q.Pop()
			if !ok {
				t.Fatalf("step %d: Pop empty with size %d", step, size)
			}
			lowest := -1
			for b := 0; b < bands; b++ {
				if oracle[b] > 0 {
					lowest = b
					break
				}
			}
			if v != lowest {
				t.Fatalf("step %d: popped band %d, lowest occupied %d", step, v, lowest)
			}
			oracle[v]--
			if oracle[v] == 0 {
				delete(oracle, v)
			}
			size--
		}
		if q.Len() != size {
			t.Fatalf("step %d: Len = %d, oracle %d", step, q.Len(), size)
		}
	}
}

// TestBucketExactResolutionMatchesHeap runs one-band-per-value bucket
// ordering against a sorted oracle over a larger value domain than the
// generic suite uses.
func TestBucketExactResolutionMatchesHeap(t *testing.T) {
	const domain = 1 << 12
	q := NewBucketQueue[int](domain, func(v int) int { return v })
	r := xrand.New(3)
	input := make([]int, 5000)
	for i := range input {
		input[i] = r.Intn(domain)
		q.Push(input[i])
	}
	sort.Ints(input)
	for i, want := range input {
		if got, ok := q.Pop(); !ok || got != want {
			t.Fatalf("pop %d = %v,%v want %d", i, got, ok, want)
		}
	}
}
