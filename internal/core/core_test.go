package core

import "testing"

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
