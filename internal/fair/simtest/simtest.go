// Package simtest is the deterministic, virtual-clock simulation
// harness for the tenant-fairness controller — the fair analogue of
// internal/backpressure/simtest, built on the same template: script
// load phases, model the plant's response to the quotas, assert the
// trace.
//
// The plant models the serve pipeline the scheduler wires the
// controller into: per window, scripted per-tenant arrival groups (a
// count of tasks for a tenant at a priority) face the two-stage gate —
// while gated, each tenant's first Floors[t] tasks are admitted
// unconditionally (the floor bypasses the priority threshold), tasks
// within the quota face the phase's priority threshold, and tasks over
// quota are parked in a real backpressure.Spillway until it is full
// and shed afterwards. A fixed service capacity drains the combined
// backlog — one task per non-empty tenant first (the floor traffic
// reaching the workers), the rest in proportion to backlog — and at
// the window's end the controller samples the cumulative per-tenant
// counters and decides; spilled tasks are re-offered under the next
// window's quotas, exactly as the scheduler's controller tick does.
//
// Everything is integer/float arithmetic on scripted inputs: no
// clocks, no randomness, so a replay is bit-identical run to run and
// the suite can assert the fairness story end to end — quotas converge
// to the weight vector under a 10× hot tenant, the starvation floor
// holds against adversarial priority inflation, and the gate releases
// when the diurnal peak passes.
package simtest

import (
	"fmt"
	"math"
	"time"

	"repro/internal/backpressure"
	"repro/internal/fair"
)

// Group is one scripted arrival class: Count tasks per window for
// tenant Tenant at priority Prio.
type Group struct {
	Tenant int
	Prio   int64
	Count  int64
}

// Load models the plant for one phase.
type Load struct {
	// Arrivals lists the per-window arrival groups.
	Arrivals []Group
	// ServiceRate is the number of tasks the workers execute per window.
	ServiceRate int64
	// Threshold is the priority admission cutoff in force during the
	// phase (tasks with Prio ≤ Threshold pass; use OpenThreshold for no
	// priority gating). It scripts the backpressure gate's output so the
	// floor-bypass interplay is testable without running that controller.
	Threshold int64
}

// OpenThreshold disables the phase's priority gate.
const OpenThreshold = math.MaxInt64

// Phase is one scripted segment of the replay.
type Phase struct {
	Name    string
	Windows int
	Load    Load
}

// WindowResult is one window of the trace: the phase it belongs to,
// the controller's decision record, the plant's per-tenant occupancies
// after the window, and the per-tenant executed counts of the window
// (what the starvation assertions read).
type WindowResult struct {
	Phase    string
	Window   fair.Window
	Backlog  []int64 // per-tenant structure depth after the window
	Spill    int64   // spillway occupancy after the window
	Executed []int64 // per-tenant tasks executed in the window
}

// Result is the full replay trace plus per-tenant admission totals.
type Result struct {
	Windows []WindowResult
	Final   fair.State
	// Per-tenant outcome totals over the whole replay.
	Arrived    []int64
	Admitted   []int64
	Deferred   []int64
	Shed       []int64
	Readmitted []int64
	Executed   []int64
}

// readmitChunk bounds per-window readmission in the plant, mirroring
// backpressure.DefaultReadmitChunk.
const readmitChunk = 256

// spillCap sizes the plant's spillway.
const spillCap = 2048

// spilled is one parked task: its tenant and priority.
type spilled struct {
	tenant int
	prio   int64
}

// Run replays the scripted phases against a fresh controller (starting
// ungated) and a fresh spillway. The virtual clock advances one
// cfg.Interval per window; the plant's counters accumulate across
// phases exactly like a real scheduler's do.
func Run(cfg fair.Config, phases []Phase) (Result, error) {
	if err := cfg.Validate(); err != nil { // fills the defaults the plant reads
		return Result{}, err
	}
	ctrl, err := fair.NewController(cfg)
	if err != nil {
		return Result{}, err
	}
	n := cfg.Tenants()
	mk := func() []int64 { return make([]int64, n) }
	res := Result{
		Arrived: mk(), Admitted: mk(), Deferred: mk(),
		Shed: mk(), Readmitted: mk(), Executed: mk(),
	}
	spill := backpressure.NewSpillway[spilled](spillCap)
	drained := make([]spilled, spill.Cap()) // drain scratch
	cum := fair.Cumulative{
		Arrived: mk(), Admitted: mk(), Deferred: mk(),
		Shed: mk(), Readmitted: mk(), Executed: mk(),
		Pending: mk(),
	}
	backlog := mk()
	winAdm := mk() // per-window per-tenant admissions against the quota
	window := 0
	for _, ph := range phases {
		if ph.Windows < 1 {
			return Result{}, fmt.Errorf("simtest: phase %q has %d windows", ph.Name, ph.Windows)
		}
		if ph.Load.ServiceRate < 0 {
			return Result{}, fmt.Errorf("simtest: phase %q has a negative service rate", ph.Name)
		}
		for _, g := range ph.Load.Arrivals {
			if g.Count < 0 || g.Prio < 0 || g.Tenant < 0 || g.Tenant >= n {
				return Result{}, fmt.Errorf("simtest: phase %q group %+v outside the domain", ph.Name, g)
			}
		}
		for w := 0; w < ph.Windows; w++ {
			window++
			gate := ctrl.State()
			for t := range winAdm {
				winAdm[t] = 0
			}

			// admit runs one task through the two-stage gate exactly as
			// the scheduler's lock-free hot path does (the window counter
			// is an unconditional Add): tenant floor first (bypasses the
			// threshold), tenant quota next, priority threshold last,
			// spillway/shed on rejection.
			admit := func(t int, prio int64) (admitted, deferred bool) {
				if gate.Gated {
					winAdm[t]++
					seq := winAdm[t]
					if seq <= gate.Floors[t] {
						return true, false // floor: bypasses the threshold
					}
					if seq > gate.Quotas[t] {
						return false, spill.Offer(spilled{t, prio})
					}
				}
				if prio > ph.Load.Threshold {
					return false, spill.Offer(spilled{t, prio})
				}
				return true, false
			}

			// Readmission first: spilled tasks from earlier windows are
			// re-offered under the fresh quotas, oldest first, before new
			// arrivals consume them — mirroring the scheduler's tick
			// draining the spillway at the window boundary.
			for _, s := range drained[:spill.DrainUpToInto(drained[:min(readmitChunk, len(drained))])] {
				ok, re := admit(s.tenant, s.prio)
				switch {
				case ok:
					backlog[s.tenant]++
					cum.Readmitted[s.tenant]++
					res.Readmitted[s.tenant]++
				case re:
					// Over quota again: parked for a later window.
				default:
					cum.Shed[s.tenant]++
					res.Shed[s.tenant]++
				}
			}

			// Admission: every arrival faces the gates in force.
			for _, g := range ph.Load.Arrivals {
				for i := int64(0); i < g.Count; i++ {
					cum.Arrived[g.Tenant]++
					res.Arrived[g.Tenant]++
					ok, def := admit(g.Tenant, g.Prio)
					switch {
					case ok:
						backlog[g.Tenant]++
						cum.Admitted[g.Tenant]++
						res.Admitted[g.Tenant]++
					case def:
						cum.Deferred[g.Tenant]++
						res.Deferred[g.Tenant]++
					default:
						cum.Shed[g.Tenant]++
						res.Shed[g.Tenant]++
					}
				}
			}

			// Service: one task per non-empty tenant first (the floor
			// traffic reaching the workers), then the remaining capacity
			// in proportion to backlog, leftovers in tenant order — all
			// deterministic integer arithmetic.
			executed := mk()
			budget := ph.Load.ServiceRate
			var total int64
			for t := range backlog {
				if budget > 0 && backlog[t] > 0 {
					backlog[t]--
					executed[t]++
					budget--
				}
				total += backlog[t]
			}
			if total > 0 && budget > 0 {
				drain := budget
				if drain > total {
					drain = total
				}
				left := drain
				for t := range backlog {
					share := drain * backlog[t] / total
					backlog[t] -= share
					executed[t] += share
					left -= share
				}
				for t := 0; left > 0 && t < n; t++ {
					if backlog[t] > 0 {
						backlog[t]--
						executed[t]++
						left--
					}
				}
			}
			for t := range executed {
				cum.Executed[t] += executed[t]
				res.Executed[t] += executed[t]
				cum.Pending[t] = backlog[t]
			}
			// Spilled tasks count toward their tenant's outstanding work,
			// like the scheduler's Pending includes its spillway.
			spillByTenant := mk()
			for _, s := range drained[:spill.DrainUpToInto(drained)] {
				spillByTenant[s.tenant]++
				spill.Offer(s)
			}
			for t := range spillByTenant {
				cum.Pending[t] += spillByTenant[t]
			}

			rec := ctrl.Step(time.Duration(window)*cfg.Interval, cum)
			res.Windows = append(res.Windows, WindowResult{
				Phase:    ph.Name,
				Window:   rec,
				Backlog:  append([]int64(nil), backlog...),
				Spill:    int64(spill.Len()),
				Executed: executed,
			})
		}
	}
	res.Final = ctrl.State()
	return res, nil
}

// StandardConfig is the canonical harness configuration: four tenants,
// a 7:1:1:1 weight split (the hot tenant is also the heavy one, so the
// cold tenants' demand exceeds their fair share under the standard
// overload and the shares are measurable), a sojourn budget of five
// windows, and the default floor fraction.
func StandardConfig() fair.Config {
	return fair.Config{
		Weights:       []int64{7, 1, 1, 1},
		SojournBudget: 50 * time.Millisecond,
		Interval:      10 * time.Millisecond,
	}
}

// StandardPhases is the canonical hot-tenant script against a service
// rate of 1000/window: a well-provisioned lead-in the gate must leave
// alone, then a sustained 1.5× overload in which tenant 0 submits 10×
// each cold tenant's rate (10x+3x = 1495 arrivals per window at
// x=115), and a light recovery tail in which the spillway must drain
// and the gate release.
func StandardPhases() []Phase {
	mixed := func(x int64) []Group {
		return []Group{
			{Tenant: 0, Prio: 1 << 10, Count: 10 * x},
			{Tenant: 1, Prio: 1 << 12, Count: x},
			{Tenant: 2, Prio: 1 << 12, Count: x},
			{Tenant: 3, Prio: 1 << 12, Count: x},
		}
	}
	return []Phase{
		{Name: "underload", Windows: 20, Load: Load{Arrivals: mixed(20), ServiceRate: 1000, Threshold: OpenThreshold}},
		{Name: "overload", Windows: 60, Load: Load{Arrivals: mixed(115), ServiceRate: 1000, Threshold: OpenThreshold}},
		{Name: "recovery", Windows: 40, Load: Load{Arrivals: mixed(20), ServiceRate: 1000, Threshold: OpenThreshold}},
	}
}
