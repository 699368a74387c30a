package backpressure

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/xrand"
)

// testCfg is the validated configuration the policy tests run against:
// a 2^20 priority domain with a protected band at 2^17 and a 100ms
// budget over 10ms windows (depth budget = 10× the window's executed).
func testCfg(t *testing.T) Config {
	t.Helper()
	c := Config{
		MaxPrio:       1<<20 - 1,
		ProtectedBand: 1 << 17,
		SojournBudget: 100 * time.Millisecond,
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDecideTable pins the policy branch by branch.
func TestDecideTable(t *testing.T) {
	cfg := testCfg(t)
	open := cfg.MaxPrio
	pb := cfg.ProtectedBand
	cases := []struct {
		name string
		cur  State
		s    Sample
		want int64
	}{
		{
			name: "steady within budget holds",
			cur:  State{Threshold: open},
			// depth 800, budget 1000: past half, under full — hysteresis.
			s:    Sample{Executed: 100, Pending: 800},
			want: open,
		},
		{
			name: "backlog past the depth budget tightens",
			cur:  State{Threshold: open},
			s:    Sample{Executed: 100, Pending: 2000},
			want: StepDown(open, pb),
		},
		{
			name: "clear headroom relaxes",
			cur:  State{Threshold: pb + 1024},
			s:    Sample{Executed: 100, Pending: 300},
			want: StepUp(pb+1024, pb, open),
		},
		{
			name: "idle window relaxes toward open",
			cur:  State{Threshold: pb + 1024},
			s:    Sample{},
			want: StepUp(pb+1024, pb, open),
		},
		{
			name: "no service with backlog is overload",
			cur:  State{Threshold: open},
			s:    Sample{Executed: 0, Pending: 50},
			want: StepDown(open, pb),
		},
		{
			name: "spilled tasks do not count as structure backlog",
			cur:  State{Threshold: pb + 1024},
			// pending 2300 but 2000 of it parked: depth 300 vs budget 1000.
			s:    Sample{Executed: 100, Pending: 2300, Spill: 2000},
			want: StepUp(pb+1024, pb, open),
		},
		{
			name: "tighten saturates at the protected band",
			cur:  State{Threshold: pb},
			s:    Sample{Executed: 0, Pending: 1 << 30},
			want: pb,
		},
		{
			name: "relax saturates at MaxPrio",
			cur:  State{Threshold: open - 1},
			s:    Sample{},
			want: open,
		},
		{
			name: "out-of-domain input state is clamped",
			cur:  State{Threshold: 10 * open},
			s:    Sample{Executed: 100, Pending: 800},
			want: open,
		},
	}
	for _, tc := range cases {
		if got := Decide(cfg, tc.cur, tc.s); got.Threshold != tc.want {
			t.Errorf("%s: Decide = %d, want %d", tc.name, got.Threshold, tc.want)
		}
	}
}

// oneStep reports whether next is reachable from cur by at most one
// Decide move.
func oneStep(cfg Config, cur State, next int64) bool {
	cur = cfg.Clamp(cur)
	return next == cur.Threshold ||
		next == StepUp(cur.Threshold, cfg.ProtectedBand, cfg.MaxPrio) ||
		next == StepDown(cur.Threshold, cfg.ProtectedBand)
}

// TestDecideProperties drives random samples through Decide via
// testing/quick and checks the three contract properties: the threshold
// never leaves [ProtectedBand, MaxPrio] (protected traffic is
// structurally unsheddable), never moves more than one step per window,
// and is monotone in the overload signal — a strictly deeper backlog
// never yields a more permissive threshold.
func TestDecideProperties(t *testing.T) {
	cfg := testCfg(t)
	prop := func(seed uint64, n uint8) bool {
		r := xrand.New(seed)
		cur := State{Threshold: int64(r.Uint64n(uint64(2 * cfg.MaxPrio)))} // may start out of domain
		for i := 0; i < int(n)+1; i++ {
			s := Sample{
				Admitted:   int64(r.Intn(100000)),
				Deferred:   int64(r.Intn(10000)),
				Shed:       int64(r.Intn(10000)),
				Readmitted: int64(r.Intn(1000)),
				Executed:   int64(r.Intn(20000)),
				Pending:    int64(r.Intn(1 << 21)),
				Spill:      int64(r.Intn(8192)),
			}
			next := Decide(cfg, cur, s)
			if next.Threshold < cfg.ProtectedBand || next.Threshold > cfg.MaxPrio {
				t.Logf("threshold left the domain: %+v -> %+v on %+v", cur, next, s)
				return false
			}
			if !oneStep(cfg, cur, next.Threshold) {
				t.Logf("multi-step move: %+v -> %+v on %+v", cur, next, s)
				return false
			}
			deeper := s
			deeper.Pending += 1 + int64(r.Intn(1<<20))
			if d := Decide(cfg, cur, deeper); d.Threshold > next.Threshold {
				t.Logf("monotonicity violated: pending %d -> threshold %d, pending %d -> threshold %d",
					s.Pending, next.Threshold, deeper.Pending, d.Threshold)
				return false
			}
			cur = next
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestDecideDeterministic: the same (config, state, sample) always
// produces the same decision — the foundation the simtest replay
// determinism rests on.
func TestDecideDeterministic(t *testing.T) {
	cfg := testCfg(t)
	prop := func(th uint32, exec, pend, spill uint16) bool {
		cur := State{Threshold: int64(th)}
		s := Sample{Executed: int64(exec), Pending: int64(pend), Spill: int64(spill)}
		return Decide(cfg, cur, s) == Decide(cfg, cur, s)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStepArithmetic(t *testing.T) {
	if got := StepDown(1000, 100); got != 550 {
		t.Fatalf("StepDown(1000, 100) = %d", got)
	}
	if got := StepDown(100, 100); got != 100 {
		t.Fatalf("StepDown at the band = %d, want saturation", got)
	}
	// Additive increase: 1/16 of the 900-wide domain above the band.
	if got := StepUp(100, 100, 1000); got != 156 {
		t.Fatalf("StepUp from the band = %d, want +domain/16 = 156", got)
	}
	if got := StepUp(990, 100, 1000); got != 1000 {
		t.Fatalf("StepUp(990, 100, 1000) = %d, want saturation at max", got)
	}
	// A domain narrower than 16 priorities still opens one per step.
	if got := StepUp(100, 100, 105); got != 101 {
		t.Fatalf("StepUp on a tiny domain = %d, want one open priority", got)
	}
	if got := StepUp(1<<62, 0, 1<<62+5); got != 1<<62+5 {
		t.Fatalf("StepUp overflow guard = %d", got)
	}
}

func TestReadmitQuota(t *testing.T) {
	cfg := testCfg(t) // budget multiplier 10×
	cases := []struct {
		name string
		s    Sample
		want int64
	}{
		{"empty spillway", Sample{Executed: 100, Pending: 0}, 0},
		{"overloaded window readmits nothing", Sample{Executed: 100, Pending: 2000, Spill: 500}, 0},
		{"empty structure re-feeds a chunk", Sample{Executed: 0, Pending: 500, Spill: 500}, int64(DefaultReadmitChunk)},
		{"empty structure with a small spill drains it", Sample{Executed: 0, Pending: 3, Spill: 3}, 3},
		{"headroom admits up to the spare budget", Sample{Executed: 10, Pending: 580, Spill: 500}, 20},
		{"chunk caps a large spare budget", Sample{Executed: 1000, Pending: 1100, Spill: 9000}, int64(DefaultReadmitChunk)},
		{"no room at exactly the budget", Sample{Executed: 10, Pending: 600, Spill: 500}, 0},
	}
	for _, tc := range cases {
		if got := ReadmitQuota(cfg, tc.s); got != tc.want {
			t.Errorf("%s: quota = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},                                 // MaxPrio missing
		{MaxPrio: -5},                      // negative domain
		{MaxPrio: 100, ProtectedBand: 101}, // band outside the domain
		{MaxPrio: 100, ProtectedBand: -1},  // negative band
		{MaxPrio: 100, SojournBudget: time.Microsecond}, // sub-ms budget
		{MaxPrio: 100, Interval: time.Microsecond},      // sub-ms window
		{MaxPrio: 100, SpillCap: -1},
		{MaxPrio: 100, ReadmitChunk: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
	c := Config{MaxPrio: 1 << 20}
	if err := c.Validate(); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
	if c.SojournBudget != DefaultSojournBudget || c.Interval != DefaultInterval ||
		c.SpillCap != DefaultSpillCap || c.ReadmitChunk != DefaultReadmitChunk {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if _, err := NewController(Config{}); err == nil {
		t.Fatal("NewController accepted an invalid config")
	}
}

// TestControllerStepDeltas: the controller differences cumulative
// snapshots into window samples, starts fully open, and only tightens
// on evidence.
func TestControllerStepDeltas(t *testing.T) {
	cfg := testCfg(t)
	ctrl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ctrl.State(); got.Threshold != cfg.MaxPrio {
		t.Fatalf("seed threshold = %d, want fully open %d", got.Threshold, cfg.MaxPrio)
	}
	// Window 1: 100 executed, backlog 2000 — overload, tighten.
	w1 := ctrl.Step(10*time.Millisecond, Cumulative{Admitted: 2100, Executed: 100, Pending: 2000})
	if w1.Sample.Admitted != 2100 || w1.Sample.Executed != 100 {
		t.Fatalf("first window sample %+v, want raw cumulative values", w1.Sample)
	}
	if want := StepDown(cfg.MaxPrio, cfg.ProtectedBand); w1.State.Threshold != want {
		t.Fatalf("overloaded first window: threshold %d, want %d", w1.State.Threshold, want)
	}
	// Window 2: backlog cleared — relax one step.
	w2 := ctrl.Step(20*time.Millisecond, Cumulative{Admitted: 2100, Executed: 2100, Pending: 0})
	if w2.Sample.Admitted != 0 || w2.Sample.Executed != 2000 {
		t.Fatalf("second window sample %+v, want deltas 0/2000", w2.Sample)
	}
	if w2.State.Threshold <= w1.State.Threshold {
		t.Fatalf("recovered window did not relax: %d -> %d", w1.State.Threshold, w2.State.Threshold)
	}
	if got := ctrl.State(); got != w2.State {
		t.Fatalf("State() = %+v, trace says %+v", got, w2.State)
	}
}

func TestControllerPrime(t *testing.T) {
	ctrl, err := NewController(testCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Prime(Cumulative{Admitted: 1e9, Executed: 1e9})
	w := ctrl.Step(10*time.Millisecond, Cumulative{Admitted: 1e9 + 50, Executed: 1e9 + 50, Pending: 0})
	if w.Sample.Admitted != 50 || w.Sample.Executed != 50 {
		t.Fatalf("primed first window sampled history: %+v", w.Sample)
	}
}

func TestSpillwayFIFOAndBounds(t *testing.T) {
	s := NewSpillway[int](3)
	if s.Cap() != 3 || s.Len() != 0 {
		t.Fatalf("fresh spillway cap=%d len=%d", s.Cap(), s.Len())
	}
	for i := 1; i <= 3; i++ {
		if !s.Offer(i) {
			t.Fatalf("Offer(%d) refused below capacity", i)
		}
	}
	if s.Offer(4) {
		t.Fatal("Offer accepted past capacity")
	}
	out := make([]int, 100)
	if n := s.DrainUpToInto(out[:2]); n != 2 || out[0] != 1 || out[1] != 2 {
		t.Fatalf("DrainUpToInto(2 slots) = %v, want [1 2]", out[:n])
	}
	if !s.Offer(4) || !s.Offer(5) {
		t.Fatal("Offer refused after drain made room")
	}
	if n := s.DrainUpToInto(out); n != 3 || out[0] != 3 || out[1] != 4 || out[2] != 5 {
		t.Fatalf("final drain = %v, want [3 4 5]", out[:n])
	}
	if n := s.DrainUpToInto(out[:1]); n != 0 {
		t.Fatalf("drain of empty spillway obtained %d tasks", n)
	}
	if !s.Offer(6) {
		t.Fatal("Offer refused on an empty spillway")
	}
	if n := s.DrainUpToInto(nil); n != 0 || s.Len() != 1 {
		t.Fatalf("DrainUpToInto(no slots) = %d with %d left, want 0 with 1 left", n, s.Len())
	}
}

// TestSpillwayConcurrent: concurrent Offer/DrainUpToInto must neither lose
// nor duplicate tasks (runs under CI's -race lane).
func TestSpillwayConcurrent(t *testing.T) {
	const producers, perProducer = 4, 5000
	s := NewSpillway[int](256)
	var wg sync.WaitGroup
	var parked, refused sync.Map
	var mu sync.Mutex
	drained := map[int]bool{}

	stop := make(chan struct{})
	var dwg sync.WaitGroup
	dwg.Add(1)
	go func() {
		defer dwg.Done()
		var buf [17]int
		for {
			got := buf[:s.DrainUpToInto(buf[:])]
			mu.Lock()
			for _, v := range got {
				if drained[v] {
					t.Errorf("value %d drained twice", v)
				}
				drained[v] = true
			}
			mu.Unlock()
			if len(got) == 0 {
				select {
				case <-stop:
					return
				default:
				}
			}
		}
	}()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v := p*perProducer + i
				if s.Offer(v) {
					parked.Store(v, true)
				} else {
					refused.Store(v, true)
				}
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	dwg.Wait()
	rest := make([]int, s.Cap())
	for _, v := range rest[:s.DrainUpToInto(rest)] {
		mu.Lock()
		if drained[v] {
			t.Errorf("value %d drained twice", v)
		}
		drained[v] = true
		mu.Unlock()
	}
	parked.Range(func(k, _ any) bool {
		if !drained[k.(int)] {
			t.Errorf("parked value %v lost", k)
			return false
		}
		return true
	})
	refused.Range(func(k, _ any) bool {
		if drained[k.(int)] {
			t.Errorf("refused value %v surfaced anyway", k)
			return false
		}
		return true
	})
}
