package relaxed

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/xrand"
)

// checkFront is the invariant of a numeric lane between lock episodes
// (front.go): the front is sorted by key, minimum last, holds at most
// frontCap entries none of which is above the heap's minimum, is empty
// only when the heap is, and has given up every slot it vacated.
func checkFront[T any](ln *lane[T]) error {
	f := ln.front
	if len(f) > frontCap || cap(f) > frontCap {
		return fmt.Errorf("front holds %d entries (cap %d), frontCap is %d", len(f), cap(f), frontCap)
	}
	for i := 1; i < len(f); i++ {
		if f[i-1].Key < f[i].Key {
			return fmt.Errorf("front not sorted: key %d at %d before key %d", f[i-1].Key, i-1, f[i].Key)
		}
	}
	if top, ok := ln.kh.Peek(); ok {
		if len(f) == 0 {
			return fmt.Errorf("front empty with %d entries in the heap", ln.kh.Len())
		}
		if f[0].Key > top.Key {
			return fmt.Errorf("front maximum %d above heap minimum %d", f[0].Key, top.Key)
		}
	}
	for i, e := range f[len(f):cap(f)] {
		if !reflect.ValueOf(e).IsZero() {
			return fmt.Errorf("vacated front slot %d still holds %+v", len(f)+i, e)
		}
	}
	return nil
}

// TestLaneOrderProperty drives one keyed lane against a reference
// multiset through random interleavings of Push/PushK and Pop/PopKInto,
// hovering at depths on both sides of frontCap — so the merge, the
// overflow to the heap, the refill from it and a pop larger than the
// front all run — with duplicate keys, both ends of the key domain and
// a share of the tasks going stale while queued. After every step the
// lane must satisfy checkFront, and a pop must have taken exactly the
// lane's smallest entries: in key order, none lost, none twice, nothing
// smaller left behind.
func TestLaneOrderProperty(t *testing.T) {
	type item struct {
		key int64
		id  int
		ref *int // a pointer, so a slot that was not zeroed shows
	}
	for _, depth := range []int{1, 7, 64, 65, 1000} {
		t.Run(fmt.Sprint("depth=", depth), func(t *testing.T) {
			rng := xrand.New(uint64(depth))
			live := map[int]int64{} // id → key of everything in the lane
			stale := map[int]bool{}
			var removed []item // what the current pop eliminated
			d, err := NewWithNumeric(core.Options[item]{
				Places: 1, Seed: 1,
				Less:        func(a, b item) bool { return a.key < b.key },
				Stale:       func(v item) bool { return stale[v.id] },
				OnEliminate: func(_ int, v item) { removed = append(removed, v) },
			}, Config{Lanes: 1}, NumericConfig[item]{Prio: func(v item) int64 { return v.key }})
			if err != nil {
				t.Fatal(err)
			}
			nextID := 0
			draw := func() item {
				var key int64
				switch rng.Intn(8) {
				case 0:
					key = math.MinInt64
				case 1:
					key = math.MaxInt64
				case 2, 3:
					key = int64(rng.Uint64()) // anywhere in the domain
				default:
					key = int64(rng.Intn(16)) - 8 // duplicates
				}
				nextID++
				if rng.Intn(4) == 0 {
					stale[nextID] = true
				}
				live[nextID] = key
				return item{key: key, id: nextID, ref: new(int)}
			}
			buf := make([]item, MaxPopBatch)
			for step := 0; step < 4000; step++ {
				push := len(live) == 0 || (len(live) <= depth) == (rng.Intn(4) != 0)
				if push {
					n := []int{1, 1, 8, 256}[rng.Intn(4)]
					if n == 1 && rng.Intn(2) == 0 {
						d.Push(0, 0, draw())
					} else {
						for i := range buf[:n] {
							buf[i] = draw()
						}
						d.PushK(0, 0, buf[:n])
					}
				} else {
					n := []int{1, 8, MaxPopBatch}[rng.Intn(3)]
					removed = removed[:0]
					var got int
					if n == 1 && rng.Intn(2) == 0 {
						var ok bool
						if buf[0], ok = d.Pop(0); ok {
							got = 1
						}
					} else {
						got = d.PopKInto(0, buf[:n])
					}
					taken := int64(math.MinInt64)
					for i, v := range buf[:got] {
						if stale[v.id] {
							t.Fatalf("step %d: popped stale task %d", step, v.id)
						}
						if i > 0 && v.key < buf[i-1].key {
							t.Fatalf("step %d: pop out of order: key %d after %d", step, v.key, buf[i-1].key)
						}
					}
					for _, v := range append(removed, buf[:got]...) {
						if key, ok := live[v.id]; !ok || key != v.key {
							t.Fatalf("step %d: task %d (key %d) came out but is not in the lane", step, v.id, v.key)
						}
						delete(live, v.id)
						taken = max(taken, v.key)
					}
					for id, key := range live {
						if key < taken {
							t.Fatalf("step %d: took key %d and left task %d with key %d behind", step, taken, id, key)
						}
					}
					if got < n && len(live) > 0 {
						t.Fatalf("step %d: pop of %d returned %d with %d tasks still queued", step, n, got, len(live))
					}
				}
				if err := checkFront(d.lanes[0]); err != nil {
					t.Fatalf("step %d (push=%v, %d queued): %v", step, push, len(live), err)
				}
				if queued := len(d.lanes[0].front) + d.lanes[0].kh.Len(); queued != len(live) {
					t.Fatalf("step %d: lane holds %d entries, reference %d", step, queued, len(live))
				}
			}
		})
	}
}

// TestLaneLayout holds the lane's two cache-line groups (see lane) until
// ROADMAP item 8 (ii) makes field placement an analyzer: the lock and
// the queue state its holder rewrites share the first 64-byte line, the
// advertisement every sampler polls sits on the second, and a lane is a
// whole number of 128-byte pairs, so the allocator's size class keeps
// two lanes from sharing one.
func TestLaneLayout(t *testing.T) {
	var ln lane[[4]int64]
	line := func(off uintptr) uintptr { return off / 64 }
	holder := map[string]uintptr{
		"mu": unsafe.Offsetof(ln.mu), "front": unsafe.Offsetof(ln.front),
		"kh": unsafe.Offsetof(ln.kh), "q": unsafe.Offsetof(ln.q) + unsafe.Sizeof(ln.q) - 1,
	}
	for name, off := range holder {
		if line(off) != 0 {
			t.Errorf("lane.%s at offset %d is off the lock holder's line", name, off)
		}
	}
	polled := map[string]uintptr{
		"minP": unsafe.Offsetof(ln.minP), "min": unsafe.Offsetof(ln.min),
		"spare": unsafe.Offsetof(ln.spare), "contended": unsafe.Offsetof(ln.contended),
	}
	for name, off := range polled {
		if line(off) != 1 {
			t.Errorf("lane.%s at offset %d is not on the advertisement line", name, off)
		}
	}
	if size := unsafe.Sizeof(ln); size%128 != 0 {
		t.Errorf("Sizeof(lane) = %d, want a multiple of 128", size)
	}
	// The offsets are lines only if a lane starts on one: lanes are
	// allocated one by one and rely on the allocator's 128-byte size
	// class for that.
	d, err := New(core.Options[int64]{Places: 2, Less: less, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, ln := range d.lanes {
		if addr := uintptr(unsafe.Pointer(ln)); addr%128 != 0 {
			t.Errorf("lane %d allocated at %#x, not on a 128-byte boundary", i, addr)
		}
	}
}
