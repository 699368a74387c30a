package stats

import (
	"sync"
	"testing"
)

func TestRankTrackerValidation(t *testing.T) {
	if _, err := NewRankTracker(100, 1); err == nil {
		t.Error("want error for non-power-of-two range")
	}
	if _, err := NewRankTracker(128, 1); err == nil {
		t.Error("want error for range below RankBuckets")
	}
	if _, err := NewRankTracker(256, 0); err == nil {
		t.Error("want error for zero stride")
	}
}

func TestRankTrackerRank(t *testing.T) {
	tr, err := NewRankTracker(1<<10, 1) // 4 priorities per bucket, sample every pop
	if err != nil {
		t.Fatal(err)
	}
	// Live set: 10 tasks in bucket 0, 5 in bucket 1. Executing from
	// bucket 2 must see 15 strictly-better live tasks.
	for i := 0; i < 10; i++ {
		tr.Submitted(0)
	}
	for i := 0; i < 5; i++ {
		tr.Submitted(4)
	}
	tr.Submitted(8)
	if got := tr.Live(); got != 16 {
		t.Errorf("Live = %d, want 16", got)
	}
	rank, ok := tr.Executed(8)
	if !ok || rank != 15 {
		t.Errorf("Executed(8) = (%d, %v), want (15, true)", rank, ok)
	}
	// In-order execution from the best bucket sees rank 0.
	rank, ok = tr.Executed(0)
	if !ok || rank != 0 {
		t.Errorf("Executed(0) = (%d, %v), want (0, true)", rank, ok)
	}
	// Retract removes census weight like execution does.
	tr.Retract(0)
	if got := tr.Live(); got != 13 {
		t.Errorf("Live after retract = %d, want 13", got)
	}
}

func TestRankTrackerSamplingStride(t *testing.T) {
	tr, err := NewRankTracker(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	sampled := 0
	for i := 0; i < 16; i++ {
		tr.Submitted(0)
	}
	for i := 0; i < 16; i++ {
		if _, ok := tr.Executed(0); ok {
			sampled++
		}
	}
	if sampled != 4 {
		t.Errorf("sampled = %d, want 4 (stride 4 over 16 pops)", sampled)
	}
}

func TestRankTrackerSignal(t *testing.T) {
	tr, err := NewRankTracker(1<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	sig := tr.Signal()
	if q := sig(); q != -1 {
		t.Errorf("empty signal = %v, want -1", q)
	}
	for i := 0; i < 100; i++ {
		tr.Submitted(0)
	}
	tr.Submitted(512)
	tr.Executed(512) // rank 100
	if q := sig(); q <= 0 {
		t.Errorf("signal after inverted pop = %v, want > 0", q)
	}
}

// TestRankTrackerDecayOnlyWithSignal checks that sampled executions feed
// the windowed histogram only once Signal has been called, and that the
// p99 Signal then reports is that of every sampled rank, as when the
// histogram was always fed.
func TestRankTrackerDecayOnlyWithSignal(t *testing.T) {
	run := func(tr *RankTracker) (ranks []int64) {
		for i := 0; i < 300; i++ {
			tr.Submitted(int64(i % 1024))
		}
		for i := 299; i >= 0; i-- {
			if r, ok := tr.Executed(int64(i % 1024)); ok {
				ranks = append(ranks, r)
			}
		}
		return ranks
	}

	quiet, err := NewRankTracker(1<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ranks := run(quiet); len(ranks) != 100 {
		t.Fatalf("sampled %d ranks, want 100", len(ranks))
	}
	if quiet.decay.Load() != nil {
		t.Fatal("histogram exists although Signal was never called")
	}

	read, err := NewRankTracker(1<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	sig := read.Signal()
	ref := NewDecayingHist()
	for _, r := range run(read) {
		ref.Observe(float64(r))
	}
	if got, want := sig(), ref.Quantile(0.99); got != want || got <= 0 {
		t.Fatalf("Signal p99 = %v, want %v (> 0) from the sampled ranks", got, want)
	}
}

// TestRankTrackerSignalWhileExecuting calls Signal and reads it while
// other goroutines execute, so the race detector sees the histogram being
// published to running Executed calls.
func TestRankTrackerSignalWhileExecuting(t *testing.T) {
	tr, err := NewRankTracker(1<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				p := int64((i*7 + g) % 1024)
				tr.Submitted(p)
				tr.Executed(p)
			}
		}(g)
	}
	sig := tr.Signal()
	for k := 0; k < 10; k++ {
		sig()
	}
	wg.Wait()
}
