package ctl

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// counterCum is a toy cumulative snapshot for the loop tests.
type counterCum struct {
	Ops   int64
	Gauge int64
}

type counterSample struct {
	Ops   int64 // differenced
	Gauge int64 // instantaneous
}

func diff(prev, cur counterCum) (counterSample, counterCum) {
	return counterSample{Ops: cur.Ops - prev.Ops, Gauge: cur.Gauge}, cur
}

func TestLoopStepDiffsAndDecides(t *testing.T) {
	decide := func(cur int, s counterSample) int {
		if s.Ops > 100 {
			return cur + 1
		}
		return cur
	}
	l := NewLoop(diff, decide, 5)
	if got := l.State(); got != 5 {
		t.Fatalf("seed state = %d, want 5", got)
	}
	w1 := l.Step(10*time.Millisecond, counterCum{Ops: 150, Gauge: 7})
	if w1.Sample.Ops != 150 || w1.Sample.Gauge != 7 {
		t.Fatalf("first window sample %+v, want raw cumulative values", w1.Sample)
	}
	if w1.State != 6 || l.State() != 6 {
		t.Fatalf("first decision %d / %d, want 6", w1.State, l.State())
	}
	w2 := l.Step(20*time.Millisecond, counterCum{Ops: 200, Gauge: 3})
	if w2.Sample.Ops != 50 || w2.Sample.Gauge != 3 {
		t.Fatalf("second window sample %+v, want delta 50, gauge 3", w2.Sample)
	}
	if w2.State != 6 {
		t.Fatalf("quiet window moved the state: %d", w2.State)
	}
	if w2.At != 20*time.Millisecond {
		t.Fatalf("At = %v", w2.At)
	}
}

func TestLoopPrime(t *testing.T) {
	decide := func(cur int, s counterSample) int { return cur + int(s.Ops) }
	l := NewLoop(diff, decide, 0)
	l.Prime(counterCum{Ops: 1e9})
	w := l.Step(time.Millisecond, counterCum{Ops: 1e9 + 3})
	if w.Sample.Ops != 3 {
		t.Fatalf("primed first window sampled history: %+v", w.Sample)
	}
}

func TestRingBelowCapacity(t *testing.T) {
	r := NewRing[int](4)
	if got := r.Snapshot(); got != nil {
		t.Fatalf("empty ring snapshot = %v, want nil", got)
	}
	r.Append(1)
	r.Append(2)
	if got, want := r.Snapshot(), []int{1, 2}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRingWrapsOldestFirst(t *testing.T) {
	r := NewRing[int](3)
	for i := 1; i <= 7; i++ {
		r.Append(i)
	}
	got := r.Snapshot()
	want := []int{5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot = %v, want %v", got, want)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing[string](0)
	r.Append("a")
	r.Append("b")
	got := r.Snapshot()
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("capacity-clamped ring snapshot = %v, want [b]", got)
	}
}

// bump is the toy policy of the session and replay tests: one step up
// per busy window.
func bump(cur int, s counterSample) int {
	if s.Ops > 100 {
		return cur + 1
	}
	return cur
}

func TestSessionIdleBeforeBegin(t *testing.T) {
	h := NewSession[counterCum, counterSample](7, 4)
	if got := h.State(); got != 7 {
		t.Fatalf("idle State = %d, want 7", got)
	}
	if tr := h.Trace(); tr != nil {
		t.Fatalf("idle Trace = %v, want nil", tr)
	}
}

// TestSessionBeginResets: a second Begin starts from the new loop's
// seed with an empty trace, and its first window is differenced
// against the snapshot Begin was given, not against the zero value or
// the previous session's baseline.
func TestSessionBeginResets(t *testing.T) {
	h := NewSession[counterCum, counterSample](0, 8)
	if seed := h.Begin(NewLoop(diff, bump, 3), counterCum{Ops: 1000}); seed != 3 {
		t.Fatalf("Begin returned %d, want the loop's seed 3", seed)
	}
	if w := h.Step(time.Millisecond, counterCum{Ops: 1150}); w.Sample.Ops != 150 || w.State != 4 {
		t.Fatalf("first window %+v, want delta 150 → state 4", w)
	}
	h.Step(2*time.Millisecond, counterCum{Ops: 1160})
	if got := len(h.Trace()); got != 2 {
		t.Fatalf("session 1 trace has %d windows, want 2", got)
	}

	if seed := h.Begin(NewLoop(diff, bump, 3), counterCum{Ops: 5000}); seed != 3 || h.State() != 3 {
		t.Fatalf("second Begin: seed %d, State %d, want 3 and 3 (not session 1's final 4)", seed, h.State())
	}
	if tr := h.Trace(); len(tr) != 0 {
		t.Fatalf("second Begin kept %d windows of session 1", len(tr))
	}
	if w := h.Step(time.Millisecond, counterCum{Ops: 5010}); w.Sample.Ops != 10 || w.State != 3 {
		t.Fatalf("session 2 first window %+v, want delta 10 (re-primed) and no move", w)
	}
}

func TestSessionTraceBounded(t *testing.T) {
	const capacity, extra = 16, 5
	h := NewSession[counterCum, counterSample](0, capacity)
	h.Begin(NewLoop(diff, bump, 0), counterCum{})
	for i := 1; i <= capacity+extra; i++ {
		h.Step(time.Duration(i), counterCum{Ops: int64(i)})
	}
	tr := h.Trace()
	if len(tr) != capacity {
		t.Fatalf("trace holds %d windows, want the %d-window ring", len(tr), capacity)
	}
	if tr[0].At != extra+1 || tr[capacity-1].At != capacity+extra {
		t.Fatalf("trace spans At %d..%d, want the newest %d..%d", tr[0].At, tr[capacity-1].At, extra+1, capacity+extra)
	}
}

// TestSessionConcurrentReaders runs State/Trace observers against a
// stepping (and re-Beginning) writer; the race detector is the
// assertion, plus: an observed state never runs ahead of the windows
// stepped, and a trace is always internally ordered.
func TestSessionConcurrentReaders(t *testing.T) {
	const steps = 2000
	h := NewSession[counterCum, counterSample](0, 64)
	h.Begin(NewLoop(diff, bump, 0), counterCum{})
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if st := h.State(); st < 0 || st > steps {
					t.Errorf("observed state %d outside [0, %d]", st, steps)
					return
				}
				tr := h.Trace()
				for i := 1; i < len(tr); i++ {
					if tr[i].At <= tr[i-1].At {
						t.Errorf("trace out of order at %d: %v after %v", i, tr[i].At, tr[i-1].At)
						return
					}
				}
			}
		}()
	}
	var cum counterCum
	for i := 1; i <= steps; i++ {
		if i == steps/2 {
			h.Begin(NewLoop(diff, bump, 0), cum)
		}
		cum.Ops += 101
		h.Step(time.Duration(i), cum)
	}
	close(stop)
	readers.Wait()
	if got := h.State(); got != steps-steps/2+1 {
		t.Fatalf("final state %d, want one bump per window since the second Begin (%d)", got, steps-steps/2+1)
	}
}

// scripted is a recorded chain under bump from seed 0: busy, quiet,
// busy, busy.
func scripted() []Window[counterSample, int] {
	return []Window[counterSample, int]{
		{At: 1, Sample: counterSample{Ops: 150}, State: 1},
		{At: 2, Sample: counterSample{Ops: 20}, State: 1},
		{At: 3, Sample: counterSample{Ops: 101}, State: 2},
		{At: 4, Sample: counterSample{Ops: 500, Gauge: 9}, State: 3},
	}
}

func TestReplayBitIdentical(t *testing.T) {
	ws := scripted()
	if diffs := Diff("toy", Replay(ws, 0, bump), ws); len(diffs) != 0 {
		t.Fatalf("replay of a faithful record diverged: %v", diffs)
	}
	if got := Replay([]Window[counterSample, int](nil), 0, bump); len(got) != 0 {
		t.Fatalf("replay of an empty trace = %v", got)
	}
}

func TestReplayLocalizesTampering(t *testing.T) {
	// A tampered state is wrong at its own window only: the replay
	// re-decides from its own chain, not from the record's states.
	ws := scripted()
	ws[1].State = 5
	diffs := Diff("toy", Replay(ws, 0, bump), ws)
	if len(diffs) != 1 || !strings.HasPrefix(diffs[0], "toy[1]:") {
		t.Fatalf("tampered state: diffs = %v, want exactly toy[1]", diffs)
	}

	// A tampered sample changes what decide sees from that window on:
	// the quiet window made busy bumps every later state by one.
	ws = scripted()
	ws[1].Sample.Ops = 150
	diffs = Diff("toy", Replay(ws, 0, bump), ws)
	if len(diffs) != 3 || !strings.HasPrefix(diffs[0], "toy[1]:") || !strings.HasPrefix(diffs[2], "toy[3]:") {
		t.Fatalf("tampered sample: diffs = %v, want toy[1] through toy[3]", diffs)
	}

	// The wrong seed diverges from the first window.
	ws = scripted()
	if diffs := Diff("toy", Replay(ws, 1, bump), ws); len(diffs) != len(ws) || !strings.HasPrefix(diffs[0], "toy[0]:") {
		t.Fatalf("wrong seed: diffs = %v, want every window from toy[0]", diffs)
	}
}

func TestDiffLengthMismatch(t *testing.T) {
	ws := scripted()
	diffs := Diff("toy", ws[:3], ws)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "length 3, want 4") {
		t.Fatalf("short trace: diffs = %v, want one length line", diffs)
	}
	short := scripted()[:2]
	short[0].State = 9
	diffs = Diff("toy", ws, short)
	if len(diffs) != 2 || !strings.Contains(diffs[0], "length 4, want 2") || !strings.HasPrefix(diffs[1], "toy[0]:") {
		t.Fatalf("long trace with a differing window: diffs = %v, want the length line then toy[0]", diffs)
	}
}
