package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrand"
)

// recorderFirstRing is the arrival side of Recorder as first written:
// one slot per arrival the session may record, allocated up front and
// never reused. It is the reference the recycled ring is checked
// against: on any arrival/Flush script that never overfills the ring
// between flushes, the two must write the same bytes.
type recorderFirstRing struct {
	ring    []arrSlot
	head    atomic.Int64 // next slot to claim
	flushed int64        // next slot to serialize (flusher goroutine only)
	dropped atomic.Int64
	written int64

	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte // retained line buffer for arrival serialization
	err error
}

func newRecorderFirstRing(w io.Writer, arrivalCap int) *recorderFirstRing {
	if arrivalCap < 1 {
		arrivalCap = 1
	}
	return &recorderFirstRing{
		ring: make([]arrSlot, arrivalCap),
		w:    bufio.NewWriter(w),
		buf:  make([]byte, 0, 128),
	}
}

func (r *recorderFirstRing) writeJSON(v any) {
	b, err := json.Marshal(v)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	if err != nil {
		r.err = err
		return
	}
	if _, err := r.w.Write(b); err != nil {
		r.err = err
		return
	}
	r.err = r.w.WriteByte('\n')
}

func (r *recorderFirstRing) Arrival(at, prio int64, k int, hash uint64) {
	idx := r.head.Add(1) - 1
	if idx >= int64(len(r.ring)) {
		r.dropped.Add(1)
		return
	}
	s := &r.ring[idx]
	s.at = at
	s.prio = prio
	s.k = int64(k)
	s.hash = hash
	s.ready.Store(1)
}

func (r *recorderFirstRing) Flush() {
	limit := r.head.Load()
	if limit > int64(len(r.ring)) {
		limit = int64(len(r.ring))
	}
	for r.flushed < limit {
		s := &r.ring[r.flushed]
		if s.ready.Load() == 0 {
			return // claimed, payload not yet committed; retry next flush
		}
		b := r.buf[:0]
		b = append(b, `{"t":"arr","at_ns":`...)
		b = strconv.AppendInt(b, s.at, 10)
		b = append(b, `,"p":`...)
		b = strconv.AppendInt(b, s.prio, 10)
		b = append(b, `,"k":`...)
		b = strconv.AppendInt(b, s.k, 10)
		if s.hash != 0 {
			b = append(b, `,"h":"`...)
			b = strconv.AppendUint(b, s.hash, 16)
			b = append(b, '"')
		}
		b = append(b, '}', '\n')
		r.buf = b
		r.mu.Lock()
		if r.err == nil {
			_, r.err = r.w.Write(b)
		}
		r.mu.Unlock()
		r.flushed++
		r.written++
	}
}

func (r *recorderFirstRing) Finish() error {
	r.Flush()
	r.writeJSON(struct {
		T string `json:"t"`
		End
	}{T: "end", End: End{Arrivals: r.written, Dropped: r.dropped.Load()}})
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.w.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}

// arrivalRecorder is what a script drives: Recorder or the reference.
type arrivalRecorder interface {
	Arrival(at, prio int64, k int, hash uint64)
	Flush()
	Finish() error
}

// runScript offers the arrivals of each burst in turn, flushing after
// every burst, then finishes. Arrival i carries at = i, a priority and
// k derived from i, and (when hashed) a nonzero hash for most i.
func runScript(t *testing.T, r arrivalRecorder, bursts []int, hashed bool) {
	t.Helper()
	i := int64(0)
	for _, n := range bursts {
		for j := 0; j < n; j++ {
			var h uint64
			if hashed && i%5 != 0 {
				h = uint64(i)*0x9e3779b97f4a7c15 | 1
			}
			r.Arrival(i, (i*7919)%100003-50000, int(i%513), h)
			i++
		}
		r.Flush()
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// parseArrivals reads the arrival lines and end record a script wrote.
func parseArrivals(t *testing.T, raw []byte) *Capture {
	t.Helper()
	c, err := ReadCapture(io.MultiReader(strings.NewReader(`{"t":"hdr","v":1,"source":"test"}`+"\n"), bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRecorderRingMatchesFirstRing: the recycled ring writes exactly the
// bytes of the first design on every script whose bursts fit the ring —
// with and without hashes, past the session cap, and across many ring
// wraparounds, including the default ring sizes — and such a script
// never grows the ring.
func TestRecorderRingMatchesFirstRing(t *testing.T) {
	rnd := xrand.New(31)
	randomBursts := func(n, most int) []int {
		b := make([]int, n)
		for i := range b {
			b[i] = int(rnd.Uint64n(uint64(most + 1)))
		}
		return b
	}
	cases := []struct {
		name             string
		cap, slots, grow int // grow: the ring's largest size
		bursts           []int
		wantDropped      int64
	}{
		{"below cap", 4, 4, 4, []int{2, 0, 1}, 0},
		{"past cap", 4, 4, 4, []int{3, 3}, 2},
		{"past cap, one flush", 100, 128, 128, []int{250}, 150},
		{"exactly a ring", 8, 8, 8, []int{8, 5}, 5},
		{"wraparound", 50, 8, 8, []int{8, 8, 3, 8, 8, 7, 8, 8, 8}, 16},
		{"wraparound, random bursts", 1000, 16, 16, randomBursts(200, 16), -1},
		{"growable, random bursts", 1000, 16, 64, randomBursts(200, 16), -1},
		{"default ring wraps", DefaultArrivalCap, ringInitial, ringMax, []int{ringInitial, 1, ringInitial - 1, 5}, 0},
	}
	for _, c := range cases {
		for _, hashed := range []bool{false, true} {
			var got, want bytes.Buffer
			rec := newRecorder(&got, c.cap, c.slots, c.grow)
			runScript(t, rec, c.bursts, hashed)
			runScript(t, newRecorderFirstRing(&want, c.cap), c.bursts, hashed)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s (hashed %v): capture differs from the first ring's (%d vs %d bytes)", c.name, hashed, got.Len(), want.Len())
			}
			capt := parseArrivals(t, got.Bytes())
			if c.wantDropped >= 0 && capt.End.Dropped != c.wantDropped {
				t.Errorf("%s: dropped %d, want %d", c.name, capt.End.Dropped, c.wantDropped)
			}
			if int64(len(capt.Arrivals)) != capt.End.Arrivals {
				t.Errorf("%s: %d arrival lines, end record says %d", c.name, len(capt.Arrivals), capt.End.Arrivals)
			}
			if n := len(rec.ring.Load().slots); n != c.slots {
				t.Errorf("%s: ring grew to %d slots with nothing dropped for want of one", c.name, n)
			}
		}
	}
}

// TestRecorderNewSizeRing: NewRecorderSize's ring starts at the cap
// rounded up to a power of two, never more than the initial ring, and
// may grow to that rounded cap, never more than the largest ring.
func TestRecorderNewSizeRing(t *testing.T) {
	for _, c := range []struct{ cap, slots, grow int }{
		{0, 1, 1}, {1, 1, 1}, {4, 4, 4}, {5, 8, 8},
		{ringInitial, ringInitial, ringInitial}, {ringInitial + 1, ringInitial, 2 * ringInitial},
		{ringMax + 1, ringInitial, ringMax}, {DefaultArrivalCap, ringInitial, ringMax},
	} {
		r := NewRecorderSize(io.Discard, c.cap)
		if got := len(r.ring.Load().slots); got != c.slots || r.maxSlots != c.grow {
			t.Errorf("NewRecorderSize(%d) ring = %d slots growing to %d, want %d growing to %d", c.cap, got, r.maxSlots, c.slots, c.grow)
		}
	}
}

// TestRecorderWakeAtHalf: the arrival that leaves half the ring
// unflushed signals Wake, once per slot of the channel; a Flush that
// empties the ring re-arms it.
func TestRecorderWakeAtHalf(t *testing.T) {
	r := newRecorder(io.Discard, 100, 8, 8)
	woken := func() bool {
		select {
		case <-r.Wake():
			return true
		default:
			return false
		}
	}
	for i := int64(0); i < 3; i++ {
		r.Arrival(i, i, 1, 0)
	}
	if woken() {
		t.Fatal("3 of 8 slots unflushed: woken, want not yet")
	}
	r.Arrival(3, 3, 1, 0)
	if !woken() {
		t.Fatal("4 of 8 slots unflushed: not woken")
	}
	r.Arrival(4, 4, 1, 0)
	if !woken() {
		t.Fatal("5 of 8 slots unflushed after the wake was taken: not woken again")
	}
	r.Flush()
	for i := int64(5); i < 8; i++ {
		r.Arrival(i, i, 1, 0)
	}
	if woken() {
		t.Fatal("3 of 8 slots unflushed after a Flush: woken, want not yet")
	}
}

// TestRecorderGrowsOnlyWhenEmpty: a Flush that finds an arrival dropped
// for want of a slot doubles the ring, but only once every claimed
// arrival is serialized — a claim still being written holds the switch
// back to a later Flush — and the arrivals on both sides of the switch
// are recorded in claim order, none lost.
func TestRecorderGrowsOnlyWhenEmpty(t *testing.T) {
	var buf bytes.Buffer
	r := newRecorder(&buf, 100, 8, 16)
	slots := func() int { return len(r.ring.Load().slots) }
	for i := int64(0); i < 8; i++ {
		r.Arrival(i, i, 1, 0)
	}
	r.Flush()
	if slots() != 8 {
		t.Fatalf("a full ring, nothing dropped: ring grew to %d, want 8", slots())
	}
	for i := int64(8); i < 15; i++ {
		r.Arrival(i, i, 1, 0)
	}
	// Claim arrival 15 the way Arrival does, but leave its payload
	// uncommitted, as a producer between its CAS and its stores.
	r.head.Add(1)
	r.Arrival(-1, -1, 1, 0) // no free slot: dropped
	r.Flush()
	if slots() != 8 {
		t.Fatalf("ring switched to %d slots while an arrival was still being written", slots())
	}
	s := &r.ring.Load().slots[15&7]
	s.at, s.prio, s.k = 15, 15, 1
	s.ready.Store(1)
	r.Flush()
	if slots() != 16 {
		t.Fatalf("a drop seen, then the ring empty: %d slots, want 16", slots())
	}
	for i := int64(16); i < 32; i++ {
		r.Arrival(i, i, 1, 0)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	capt := parseArrivals(t, buf.Bytes())
	if capt.End.Arrivals != 32 || capt.End.Dropped != 1 {
		t.Fatalf("end record %+v, want 32 arrivals, 1 dropped", *capt.End)
	}
	for i, a := range capt.Arrivals {
		if a.At != int64(i) {
			t.Fatalf("arrival %d recorded as %d", i, a.At)
		}
	}
}

// TestRecorderRingFullDrops: an arrival whose slot Flush has not freed
// is dropped and counted, claims no index, and the arrivals after the
// next Flush are recorded in order with no gap.
func TestRecorderRingFullDrops(t *testing.T) {
	var buf bytes.Buffer
	r := newRecorder(&buf, 100, 8, 8)
	for i := int64(0); i < 11; i++ {
		r.Arrival(i, i, 1, 0)
	}
	if d := r.Dropped(); d != 3 {
		t.Fatalf("ring of 8, 11 arrivals, no flush: dropped %d, want 3", d)
	}
	r.Flush()
	for i := int64(11); i < 19; i++ {
		r.Arrival(i, i, 1, 0)
	}
	r.Arrival(19, 19, 1, 0)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	capt := parseArrivals(t, buf.Bytes())
	var at []int64
	for _, a := range capt.Arrivals {
		at = append(at, a.At)
	}
	want := []int64{0, 1, 2, 3, 4, 5, 6, 7, 11, 12, 13, 14, 15, 16, 17, 18}
	if len(at) != len(want) {
		t.Fatalf("recorded %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("recorded %v, want %v", at, want)
		}
	}
	if capt.End.Arrivals != 16 || capt.End.Dropped != 4 {
		t.Fatalf("end record %+v, want 16 arrivals, 4 dropped", *capt.End)
	}
}

// TestRecorderConcurrentArrivalsAndFlush: four producers record into a
// small ring while one goroutine flushes at random points. Every offered
// arrival is either written or dropped, none twice, each producer's
// recorded arrivals keep its order, and the flusher lagging a ring
// behind shows as drops. CI runs it under -race.
func TestRecorderConcurrentArrivalsAndFlush(t *testing.T) {
	const producers, perProducer, slots = 4, 20000, 64
	var buf bytes.Buffer
	r := newRecorder(&buf, producers*perProducer, slots, slots)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				r.Arrival(int64(i), int64(p), 1, uint64(p*perProducer+i)+1)
			}
		}(p)
	}
	done := make(chan struct{})
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		rnd := xrand.New(5)
		for {
			select {
			case <-done:
				return
			default:
			}
			if rnd.Uint64n(4) == 0 {
				time.Sleep(time.Duration(rnd.Uint64n(50)) * time.Microsecond)
			} else {
				runtime.Gosched()
			}
			r.Flush()
		}
	}()
	wg.Wait()
	close(done)
	<-flushed
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	capt := parseArrivals(t, buf.Bytes())
	written, dropped := capt.End.Arrivals, capt.End.Dropped
	if int64(len(capt.Arrivals)) != written {
		t.Fatalf("%d arrival lines, end record says %d", len(capt.Arrivals), written)
	}
	if written+dropped != producers*perProducer {
		t.Fatalf("written %d + dropped %d != offered %d", written, dropped, producers*perProducer)
	}
	if dropped == 0 {
		t.Fatalf("a %d-slot ring under %d producers never filled: no drops", slots, producers)
	}
	seen := make([]bool, producers*perProducer)
	last := [producers]int64{-1, -1, -1, -1}
	for _, a := range capt.Arrivals {
		p := a.Prio
		h, err := strconv.ParseUint(a.Hash, 16, 64)
		if err != nil || p < 0 || p >= producers || h != uint64(p*perProducer+a.At)+1 {
			t.Fatalf("arrival %+v does not match what its producer offered", a)
		}
		if seen[h-1] {
			t.Fatalf("arrival %+v recorded twice", a)
		}
		seen[h-1] = true
		if a.At <= last[p] {
			t.Fatalf("producer %d: arrival %d recorded after %d", p, a.At, last[p])
		}
		last[p] = a.At
	}
}

// TestRecorderGrowsUnderConcurrentArrivals: four producers record at
// full speed into a ring that starts at 4 slots and may grow to 64, and
// the flusher runs only when Wake signals it. Every offered
// arrival is written or dropped, none twice, each producer's recorded
// arrivals keep its order, and the ring grows four times. A producer
// that has seen the largest ring offers a few more arrivals, and none
// of them is dropped: the ring switched only when empty, so all the
// arrivals claimed after the switch fit it. A lost arrival needs a
// claim to race a switch, so the session runs many times. CI runs it
// under -race.
func TestRecorderGrowsUnderConcurrentArrivals(t *testing.T) {
	rounds := 10
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		growUnderConcurrentArrivals(t)
		if t.Failed() {
			t.Fatalf("round %d of %d", round, rounds)
		}
	}
}

func growUnderConcurrentArrivals(t *testing.T) {
	// producers*(after+1) ≤ grown: besides its after arrivals, a
	// producer can claim at most one more after the switch — the one it
	// offered between seeing the old ring and the switch.
	const producers, slots, grown, after = 4, 4, 64, 15
	id := func(p, i int) uint64 { return uint64(i*producers+p) + 1 }
	var buf bytes.Buffer
	r := newRecorder(&buf, 1<<40, slots, grown)
	var offered [producers]int
	giveUp := time.Now().Add(30 * time.Second)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			i := 0
			for ; len(r.ring.Load().slots) < grown; i++ {
				if i%1024 == 0 && time.Now().After(giveUp) {
					break
				}
				r.Arrival(int64(i), int64(p), 1, id(p, i))
			}
			for j := 0; j < after; j, i = j+1, i+1 {
				r.Arrival(int64(i), int64(p), 2, id(p, i))
			}
			offered[p] = i
		}(p)
	}
	done := make(chan struct{})
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-r.Wake():
				r.Flush()
			case <-done:
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	<-flushed
	if n := len(r.ring.Load().slots); n != grown {
		t.Errorf("ring ended at %d slots, want %d: it did not grow to its largest size", n, grown)
		return
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	capt := parseArrivals(t, buf.Bytes())
	written, dropped := capt.End.Arrivals, capt.End.Dropped
	total := int64(0)
	for _, n := range offered {
		total += int64(n)
	}
	if int64(len(capt.Arrivals)) != written {
		t.Errorf("%d arrival lines, end record says %d", len(capt.Arrivals), written)
		return
	}
	if written+dropped != total {
		t.Errorf("written %d + dropped %d != offered %d", written, dropped, total)
		return
	}
	seen := make(map[uint64]bool, len(capt.Arrivals))
	last := [producers]int64{-1, -1, -1, -1}
	late := 0
	for _, a := range capt.Arrivals {
		p := a.Prio
		h, err := strconv.ParseUint(a.Hash, 16, 64)
		if err != nil || p < 0 || p >= producers || h != id(int(p), int(a.At)) {
			t.Errorf("arrival %+v does not match what its producer offered", a)
			return
		}
		if seen[h] {
			t.Errorf("arrival %+v recorded twice", a)
			return
		}
		seen[h] = true
		if a.At <= last[p] {
			t.Errorf("producer %d: arrival %d recorded after %d", p, a.At, last[p])
			return
		}
		last[p] = a.At
		if a.K == 2 {
			late++
		}
	}
	if late != producers*after {
		t.Errorf("%d of the %d arrivals offered after the ring had grown were recorded, want all", late, producers*after)
	}
}

// TestRecorderRetainedMemory: a fresh default Recorder retains its
// initial ring, not its largest one, let alone one slot per arrival the
// session may record.
func TestRecorderRetainedMemory(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := NewRecorder(io.Discard)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held > 256<<10 {
		t.Fatalf("a fresh NewRecorder retains %d B, want ≤ 256 KiB", held)
	}
}
