package fair

import (
	"testing"
	"time"

	"repro/internal/xrand"
)

func cfg4(weights ...int64) Config {
	if len(weights) == 0 {
		weights = []int64{1, 1, 1, 1}
	}
	return Config{Weights: weights}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{Weights: []int64{0, 0}},
		{Weights: []int64{1, -1}},
		{Weights: make([]int64, MaxTenants+1)},
		{Weights: []int64{1}, SojournBudget: time.Microsecond},
		{Weights: []int64{1}, Interval: time.Microsecond},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, c)
		}
	}
	c := cfg4()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.SojournBudget != DefaultSojournBudget || c.Interval != DefaultInterval {
		t.Errorf("defaults not applied: %+v", c)
	}
	if c.Tenants() != 4 {
		t.Errorf("Tenants = %d, want 4", c.Tenants())
	}
}

// TestBudgetBands: DepthBudget is the window's service rate scaled by
// SojournBudget/Interval, so a tighter band bites at a smaller backlog,
// and a window that executed nothing tolerates no backlog at all.
func TestBudgetBands(t *testing.T) {
	tight := Config{Weights: []int64{1, 1, 1}, SojournBudget: 20 * time.Millisecond}
	loose := Config{Weights: []int64{1, 1, 1}}
	for _, c := range []*Config{&tight, &loose} {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if got := tight.DepthBudget(100); got != 200 {
		t.Errorf("20ms band at 100/window: DepthBudget = %d, want 200", got)
	}
	if got := loose.DepthBudget(100); got != 500 {
		t.Errorf("default band at 100/window: DepthBudget = %d, want 500", got)
	}
	if got := loose.DepthBudget(0); got != 0 {
		t.Errorf("idle window: DepthBudget = %d, want 0", got)
	}
}

// TestWaterfillConvergesToWeights: when every tenant demands more than
// its share, the fair allocation is the weight vector scaled to
// capacity — the quotas-converge-to-weights property the simtest plant
// measures end to end.
func TestWaterfillConvergesToWeights(t *testing.T) {
	c := cfg4(1, 2, 3, 4)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	const capacity = 10000
	demand := []int64{1 << 30, 1 << 30, 1 << 30, 1 << 30}
	quotas, floors := Waterfill(c, capacity, demand)
	var total int64
	for t := range quotas {
		total += quotas[t]
	}
	for i, q := range quotas {
		share := capacity * c.Weights[i] / 10
		if q < share*9/10 || q > share*11/10 {
			t.Errorf("quota[%d] = %d, want ≈ weight share %d", i, q, share)
		}
		if floors[i] < 1 || q < floors[i] {
			t.Errorf("tenant %d: floor %d quota %d violate floor ≥ 1 ≤ quota", i, floors[i], q)
		}
	}
	if total > capacity*11/10 {
		t.Errorf("quota total %d overshoots capacity %d", total, capacity)
	}
}

// TestWaterfillSatisfiesColdTenants: a tenant demanding less than its
// share gets its whole demand; the leftover flows to the hot tenant.
func TestWaterfillSatisfiesColdTenants(t *testing.T) {
	c := cfg4()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	quotas, _ := Waterfill(c, 1000, []int64{10000, 50, 50, 50})
	for i := 1; i < 4; i++ {
		if quotas[i] < 50 {
			t.Errorf("cold tenant %d quota %d under its demand 50", i, quotas[i])
		}
	}
	if quotas[0] < 700 {
		t.Errorf("hot tenant quota %d: leftover capacity not concentrated", quotas[0])
	}
}

// TestWaterfillZeroWeight: zero-weight tenants get no floor and no
// share, and positive-weight floors survive zero capacity.
func TestWaterfillZeroWeight(t *testing.T) {
	c := cfg4(0, 1, 1, 1)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	quotas, floors := Waterfill(c, 0, []int64{100, 100, 100, 100})
	if quotas[0] != 0 || floors[0] != 0 {
		t.Errorf("zero-weight tenant allocated quota %d floor %d", quotas[0], floors[0])
	}
	for i := 1; i < 4; i++ {
		if floors[i] != 1 || quotas[i] != 1 {
			t.Errorf("tenant %d at zero capacity: floor %d quota %d, want the 1-task floor", i, floors[i], quotas[i])
		}
	}
}

// TestWaterfillProperties fuzzes the invariants Decide's doc promises:
// floors ≥ 1 for positive weights, quotas ≥ floors, total bounded by
// capacity plus the floor reserve.
func TestWaterfillProperties(t *testing.T) {
	r := xrand.New(7)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(8)
		c := Config{Weights: make([]int64, n)}
		var anyW int64
		for i := range c.Weights {
			c.Weights[i] = int64(r.Intn(5))
			anyW += c.Weights[i]
		}
		if anyW == 0 {
			c.Weights[r.Intn(n)] = 1
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		capacity := int64(r.Intn(10000))
		demand := make([]int64, n)
		for i := range demand {
			demand[i] = int64(r.Intn(5000))
		}
		quotas, floors := Waterfill(c, capacity, demand)
		var total, reserve int64
		for i := range quotas {
			if c.Weights[i] > 0 && floors[i] < 1 {
				t.Fatalf("trial %d: tenant %d floor %d < 1 with weight %d", trial, i, floors[i], c.Weights[i])
			}
			if c.Weights[i] == 0 && quotas[i] != 0 {
				t.Fatalf("trial %d: zero-weight tenant %d quota %d", trial, i, quotas[i])
			}
			if quotas[i] < floors[i] {
				t.Fatalf("trial %d: tenant %d quota %d < floor %d", trial, i, quotas[i], floors[i])
			}
			total += quotas[i]
			reserve += floors[i]
		}
		if total > capacity+reserve {
			t.Fatalf("trial %d: quota total %d > capacity %d + floor reserve %d", trial, total, capacity, reserve)
		}
	}
}

func sample4(arrived, executed, pending int64) Sample {
	mk := func(v int64) []int64 { return []int64{v, v, v, v} }
	return Sample{
		Arrived:  mk(arrived),
		Admitted: mk(arrived),
		Deferred: mk(0), Shed: mk(0), Readmitted: mk(0),
		Executed: mk(executed),
		Pending:  mk(pending),
	}
}

// TestDecideGateHysteresis: the gate engages on a tenant SLO breach,
// holds through the hysteresis gap, and releases at clear headroom.
func TestDecideGateHysteresis(t *testing.T) {
	c := cfg4()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	st := c.Open()
	if st.Gated {
		t.Fatal("open state gated")
	}
	// Executed 100/window per tenant with a 50ms budget over a 10ms
	// window clears 500; pending 2000 breaches.
	st = Decide(c, st, sample4(200, 100, 2000))
	if !st.Gated {
		t.Fatal("SLO breach did not engage the gate")
	}
	for i, q := range st.Quotas {
		if q < st.Floors[i] || st.Floors[i] < 1 {
			t.Fatalf("tenant %d gated with quota %d floor %d", i, q, st.Floors[i])
		}
	}
	// Pending at 60% of budget: inside the hysteresis gap, gate holds.
	st = Decide(c, st, sample4(100, 100, 300))
	if !st.Gated {
		t.Fatal("gate released inside the hysteresis gap")
	}
	// Clear headroom: release.
	st = Decide(c, st, sample4(50, 100, 100))
	if st.Gated {
		t.Fatal("gate held at clear headroom")
	}
}

// TestDecidePerTenantBand: the band is policed per tenant — one
// tenant's backlog past its own depth budget engages the gate even when
// the summed backlog fits the summed budget.
func TestDecidePerTenantBand(t *testing.T) {
	c := cfg4()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Service 100/window per tenant: the 50ms band clears 500 each.
	// Tenant 0 holds 600 (breach), the others 100: 900 of 2000 summed.
	s := sample4(100, 100, 100)
	s.Pending[0] = 600
	if st := Decide(c, c.Open(), s); !st.Gated {
		t.Error("one tenant past its band did not engage the gate")
	}
	s.Pending[0] = 400
	if st := Decide(c, c.Open(), s); st.Gated {
		t.Error("gate engaged with every tenant inside its band")
	}
}

// TestDecideCapacityEWMA: the capacity estimate smooths service-rate
// jitter rather than tracking single windows.
func TestDecideCapacityEWMA(t *testing.T) {
	c := cfg4()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	st := Decide(c, c.Open(), sample4(100, 100, 0))
	if st.Capacity != 400 {
		t.Fatalf("first window capacity = %v, want 400 (total executed)", st.Capacity)
	}
	st = Decide(c, st, sample4(100, 50, 0))
	if st.Capacity != 300 {
		t.Fatalf("EWMA capacity = %v, want (400+200)/2 = 300", st.Capacity)
	}
}

// TestControllerStepDeterministic: same snapshots, same decisions —
// the bit-identical replay property the simtest plant relies on.
func TestControllerStepDeterministic(t *testing.T) {
	mk := func() *Controller {
		ctrl, err := NewController(cfg4(1, 2, 3, 4))
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	run := func(ctrl *Controller) []Window {
		var out []Window
		cum := Cumulative{
			Arrived: make([]int64, 4), Admitted: make([]int64, 4),
			Deferred: make([]int64, 4), Shed: make([]int64, 4),
			Readmitted: make([]int64, 4), Executed: make([]int64, 4),
			Pending: make([]int64, 4),
		}
		r := xrand.New(99)
		for w := 0; w < 50; w++ {
			for t := 0; t < 4; t++ {
				a := int64(r.Intn(500))
				cum.Arrived[t] += a
				cum.Admitted[t] += a
				cum.Executed[t] += int64(r.Intn(400))
				cum.Pending[t] = int64(r.Intn(3000))
			}
			out = append(out, ctrl.Step(time.Duration(w)*DefaultInterval, cum))
		}
		return out
	}
	a, b := run(mk()), run(mk())
	for i := range a {
		if a[i].State.Gated != b[i].State.Gated || a[i].State.Capacity != b[i].State.Capacity {
			t.Fatalf("window %d diverged: %+v vs %+v", i, a[i].State, b[i].State)
		}
		for t2 := range a[i].State.Quotas {
			if a[i].State.Quotas[t2] != b[i].State.Quotas[t2] {
				t.Fatalf("window %d tenant %d quota diverged", i, t2)
			}
		}
	}
}

// TestControllerScratchReuse: the controller clones snapshots, so a
// driver mutating its scratch slices between Steps cannot corrupt the
// differencing baseline.
func TestControllerScratchReuse(t *testing.T) {
	ctrl, err := NewController(cfg4())
	if err != nil {
		t.Fatal(err)
	}
	cum := Cumulative{
		Arrived: []int64{10, 0, 0, 0}, Admitted: []int64{10, 0, 0, 0},
		Deferred: make([]int64, 4), Shed: make([]int64, 4),
		Readmitted: make([]int64, 4), Executed: []int64{10, 0, 0, 0},
		Pending: make([]int64, 4),
	}
	ctrl.Step(0, cum)
	cum.Arrived[0] = 30 // reuse the same backing arrays
	w := ctrl.Step(DefaultInterval, cum)
	if w.Sample.Arrived[0] != 20 {
		t.Fatalf("window sample arrived = %d, want 20 (30 cum − 10 baseline)", w.Sample.Arrived[0])
	}
}
