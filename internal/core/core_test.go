package core

import (
	"testing"

	"repro/internal/pq"
)

// stackDS is a trivial DS: one LIFO stack, no synchronization, batch
// operations via the singles helpers. It exists so the helpers can be
// pinned in isolation from any real structure's behavior.
type stackDS struct {
	items []int64
	stats Stats
}

func (s *stackDS) Push(place, k int, v int64) {
	s.items = append(s.items, v)
	s.stats.Pushes++
}

func (s *stackDS) Pop(place int) (int64, bool) {
	if len(s.items) == 0 {
		s.stats.PopFailures++
		return 0, false
	}
	v := s.items[len(s.items)-1]
	s.items = s.items[:len(s.items)-1]
	s.stats.Pops++
	return v, true
}

func (s *stackDS) PushK(place, k int, vs []int64) { PushKViaSingles[int64](s, place, k, vs) }

func (s *stackDS) PopKInto(place int, out []int64) int {
	return PopKIntoViaSingles[int64](s, place, out)
}

func (s *stackDS) Stats() Stats { return s.stats }

// TestPopKIntoViaSinglesAllocFree pins the singles helper's allocation
// behavior: filling a caller-owned buffer over the single-task path
// allocates nothing, and a failed pop ends the fill early.
func TestPopKIntoViaSinglesAllocFree(t *testing.T) {
	d := &stackDS{items: make([]int64, 0, 64)}
	buf := make([]int64, 8)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := int64(0); i < 11; i++ {
			d.Push(0, 1, i)
		}
		if got := PopKIntoViaSingles[int64](d, 0, buf); got != 8 || buf[0] != 10 {
			t.Fatalf("PopKIntoViaSingles got %d, buf %v", got, buf)
		}
		if got := PopKIntoViaSingles[int64](d, 0, buf); got != 3 || buf[2] != 0 {
			t.Fatalf("PopKIntoViaSingles tail got %d, buf %v", got, buf)
		}
		if got := PopKIntoViaSingles[int64](d, 0, buf); got != 0 {
			t.Fatalf("PopKIntoViaSingles on empty got %d", got)
		}
	})
	if allocs != 0 {
		t.Errorf("PopKIntoViaSingles allocs = %v, want 0", allocs)
	}
}

// TestNewLocalQueuePicks pins the one container choice: a numeric
// projection gets pq.KeyWindow, anything else a pq.BinHeap ordered by the
// supplied less.
func TestNewLocalQueuePicks(t *testing.T) {
	descending := func(a, b pq.Keyed[int]) bool { return a.V > b.V }
	keyed := NewLocalQueue(true, descending)
	if _, ok := keyed.(*pq.KeyWindow[int]); !ok {
		t.Errorf("keyed queue is %T, want *pq.KeyWindow[int]", keyed)
	}
	q := NewLocalQueue(false, descending)
	if _, ok := q.(*pq.BinHeap[pq.Keyed[int]]); !ok {
		t.Fatalf("unkeyed queue is %T, want *pq.BinHeap", q)
	}
	for _, v := range []int{2, 9, 4} {
		q.Push(pq.Keyed[int]{V: v})
	}
	for _, want := range []int{9, 4, 2} {
		if e, ok := q.Pop(); !ok || e.V != want {
			t.Fatalf("unkeyed Pop = %v,%v want %d: the queue must order by less", e.V, ok, want)
		}
	}
}
