// Package segarray implements the unbounded global array of Section 4.1.3:
// a lock-free, logically infinite array realized as a linked list of
// fixed-size segments. Segments are appended with a single CAS when an
// index beyond the current bounds is requested.
//
// Retirement follows the paper's scheme: every place scans the array
// monotonically through a Cursor; each segment carries a reference counter
// initialized to the number of places, decremented when a place's cursor
// moves past the segment. When the counter reaches zero no place can scan
// the segment again and the array's head pointer is advanced past it. The
// paper then frees the segment with a wait-free garbage collector [18];
// here unlinking it from the head chain makes it unreachable and the Go
// runtime GC reclaims it (see docs/ARCHITECTURE.md, "Departures from the
// paper"). Items that are still referenced from place-local priority
// queues stay alive through those references — this is exactly the
// laziness the paper's first retirement condition provides.
package segarray

import "sync/atomic"

// Array is a lock-free segmented array of *T slots. All methods are safe
// for concurrent use by any number of goroutines, except where noted on
// Cursor.
type Array[T any] struct {
	segShift uint
	segSize  int64
	places   int32
	head     atomic.Pointer[Segment[T]] // oldest retained segment
	tailHint atomic.Pointer[Segment[T]] // newest known segment (hint only)
}

// Segment is one fixed-size block of slots covering indices
// [base, base+len(slots)).
type Segment[T any] struct {
	base  int64
	next  atomic.Pointer[Segment[T]]
	refs  atomic.Int32 // places that may still scan this segment
	slots []atomic.Pointer[T]
}

// Base returns the first index covered by the segment.
func (s *Segment[T]) Base() int64 { return s.base }

// New returns an array with the given segment size (rounded up to a power
// of two, minimum 8) shared by the given number of scanning places.
func New[T any](segSize int, places int) *Array[T] {
	if places < 1 {
		places = 1
	}
	shift := uint(3)
	for (int64(1) << shift) < int64(segSize) {
		shift++
	}
	a := &Array[T]{
		segShift: shift,
		segSize:  1 << shift,
		places:   int32(places),
	}
	first := a.newSegment(0)
	a.head.Store(first)
	a.tailHint.Store(first)
	return a
}

// SegSize returns the (power-of-two) segment size in slots.
func (a *Array[T]) SegSize() int64 { return a.segSize }

func (a *Array[T]) newSegment(base int64) *Segment[T] {
	//schedlint:ignore segment growth is amortized: one allocation per segSize slot claims, off the per-task steady state
	s := &Segment[T]{base: base, slots: make([]atomic.Pointer[T], a.segSize)}
	s.refs.Store(a.places)
	return s
}

// segmentFor returns the segment covering pos, appending new segments as
// needed when grow is true. Returns nil when grow is false and pos lies
// beyond the last allocated segment, or when pos falls before the retained
// head (already retired).
func (a *Array[T]) segmentFor(pos int64, grow bool) *Segment[T] {
	seg := a.tailHint.Load()
	if pos < seg.base {
		seg = a.head.Load()
		if pos < seg.base {
			return nil // retired region
		}
	}
	for {
		if pos < seg.base+a.segSize {
			return seg
		}
		next := seg.next.Load()
		if next == nil {
			if !grow {
				return nil
			}
			fresh := a.newSegment(seg.base + a.segSize)
			if seg.next.CompareAndSwap(nil, fresh) {
				next = fresh
				// Best-effort hint update; losing the race is harmless.
				a.tailHint.CompareAndSwap(seg, fresh)
			} else {
				next = seg.next.Load()
			}
		}
		seg = next
	}
}

// Slot returns the slot for pos, allocating segments as needed. pos must
// be non-negative and must not fall in the retired region (callers only
// write at or past the current tail, which is never retired).
//
//schedlint:hotpath
func (a *Array[T]) Slot(pos int64) *atomic.Pointer[T] {
	slot, ok := a.TrySlot(pos)
	if !ok {
		panic("segarray: Slot on retired position")
	}
	return slot
}

// TrySlot is Slot for callers that may hold a stale position: it reports
// ok == false instead of panicking when pos falls in the retired region.
// A position can only retire after its whole segment was scanned past by
// every place, which in the tail-window protocols implies every slot was
// already occupied — so callers treat !ok exactly like a failed claim and
// retry with a fresh tail.
//
//schedlint:hotpath
func (a *Array[T]) TrySlot(pos int64) (*atomic.Pointer[T], bool) {
	seg := a.segmentFor(pos, true)
	if seg == nil {
		return nil, false
	}
	return &seg.slots[pos-seg.base], true
}

// Peek returns the value stored at pos, or nil when the slot is empty,
// unallocated, or retired. It never allocates.
//
//schedlint:hotpath
func (a *Array[T]) Peek(pos int64) *T {
	seg := a.segmentFor(pos, false)
	if seg == nil {
		return nil
	}
	return seg.slots[pos-seg.base].Load()
}

// retire advances the head pointer past fully released segments.
func (a *Array[T]) retire() {
	for {
		h := a.head.Load()
		if h.refs.Load() != 0 {
			return
		}
		next := h.next.Load()
		if next == nil {
			return // never retire the only segment
		}
		if !a.head.CompareAndSwap(h, next) {
			return // someone else advanced; good enough
		}
	}
}

// Segments counts currently retained segments. Intended for tests and
// stats; O(segments).
func (a *Array[T]) Segments() int {
	n := 0
	for s := a.head.Load(); s != nil; s = s.next.Load() {
		n++
	}
	return n
}

// Cursor is a place-private monotone scanner over the array. A cursor is
// owned by exactly one goroutine; distinct cursors may run concurrently.
type Cursor[T any] struct {
	arr *Array[T]
	seg *Segment[T]
	pos int64
}

// NewCursor returns a cursor positioned at index 0. Exactly `places`
// cursors (as passed to New) must be created, one per place, for the
// refcount-based retirement to function. Creating them before any slot
// writes is the caller's responsibility.
func (a *Array[T]) NewCursor() *Cursor[T] {
	return &Cursor[T]{arr: a, seg: a.head.Load()}
}

// Pos returns the cursor's current index.
func (c *Cursor[T]) Pos() int64 { return c.pos }

// Load returns the value at the cursor position (nil when empty). The
// position's segment must already exist, which holds whenever pos is below
// the caller-observed tail.
//
//schedlint:hotpath
func (c *Cursor[T]) Load() *T {
	return c.seg.slots[c.pos-c.seg.base].Load()
}

// Advance moves the cursor one slot forward, releasing segments it leaves
// behind. The next position's segment must exist (pos+1 at most one past
// the observed tail).
//
//schedlint:hotpath
func (c *Cursor[T]) Advance() {
	c.pos++
	if c.pos < c.seg.base+c.arr.segSize {
		return
	}
	next := c.seg.next.Load()
	if next == nil {
		// The caller advanced exactly to the end of the allocated region;
		// materialize the next segment so the cursor stays valid.
		next = c.arr.segmentFor(c.pos, true)
	}
	if c.seg.refs.Add(-1) == 0 {
		c.arr.retire()
	}
	c.seg = next
}

// Cursors are not closed: a place scans until the owning data structure is
// torn down, at which point the whole array becomes unreachable and the Go
// GC reclaims every retained segment at once.
