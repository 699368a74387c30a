// Package simtest is the deterministic, virtual-clock simulation
// harness for the backpressure controller — the backpressure analogue
// of internal/adapt/simtest, built on the same template: script load
// phases, model the plant's response to the knob, assert the trace.
//
// The plant models the serve pipeline the scheduler wires the
// controller into: per window, scripted arrival groups (a count of
// tasks at a priority) hit the admission gate at the threshold in
// force; admitted tasks join the structure's backlog, gated tasks are
// parked in a real backpressure.Spillway until it is full and shed
// afterwards; a fixed service capacity drains the backlog; at the
// window's end the controller samples the cumulative counters and
// decides, and ReadmitQuota moves spilled tasks back into the backlog
// exactly as the scheduler's controller tick does.
//
// Everything is integer/float arithmetic on scripted inputs: no clocks,
// no randomness, so a replay is bit-identical run to run and the suite
// can assert the overload story end to end — the admission bar rises
// (the threshold cutoff falls) under overload, the protected band is
// never shed, and the spillway drains on recovery.
package simtest

import (
	"fmt"
	"time"

	"repro/internal/backpressure"
)

// Group is one scripted arrival class: Count tasks per window at
// priority Prio.
type Group struct {
	Prio  int64
	Count int64
}

// Load models the plant for one phase.
type Load struct {
	// Arrivals lists the per-window arrival groups.
	Arrivals []Group
	// ServiceRate is the number of tasks the workers execute per window.
	ServiceRate int64
}

// Phase is one scripted segment of the replay.
type Phase struct {
	Name    string
	Windows int
	Load    Load
}

// WindowResult is one window of the trace: the phase it belongs to, the
// controller's decision record, and the plant's occupancies after the
// window.
type WindowResult struct {
	Phase   string
	Window  backpressure.Window
	Backlog int64 // structure depth after the window
	Spill   int64 // spillway occupancy after the window
}

// Result is the full replay trace plus per-priority admission totals,
// which is what the protection assertions read.
type Result struct {
	Windows []WindowResult
	Final   backpressure.State
	// AdmittedByPrio / DeferredByPrio / ShedByPrio total each arrival
	// group's outcomes over the whole replay, keyed by Group.Prio.
	AdmittedByPrio map[int64]int64
	DeferredByPrio map[int64]int64
	ShedByPrio     map[int64]int64
	// Readmitted is the total number of spilled tasks re-fed.
	Readmitted int64
}

// Run replays the scripted phases against a fresh controller (starting
// fully open) and a fresh spillway sized by cfg.SpillCap. The virtual
// clock advances one cfg.Interval per window; the plant's counters
// accumulate across phases exactly like a real scheduler's do.
func Run(cfg backpressure.Config, phases []Phase) (Result, error) {
	if err := cfg.Validate(); err != nil { // fills the defaults the plant reads
		return Result{}, err
	}
	ctrl, err := backpressure.NewController(cfg)
	if err != nil {
		return Result{}, err
	}
	spill := backpressure.NewSpillway[int64](cfg.SpillCap)
	drained := make([]int64, spill.Cap()) // readmission scratch
	res := Result{
		AdmittedByPrio: map[int64]int64{},
		DeferredByPrio: map[int64]int64{},
		ShedByPrio:     map[int64]int64{},
	}
	var (
		cum     backpressure.Cumulative
		backlog int64
		window  int
	)
	for _, ph := range phases {
		if ph.Windows < 1 {
			return Result{}, fmt.Errorf("simtest: phase %q has %d windows", ph.Name, ph.Windows)
		}
		if ph.Load.ServiceRate < 0 {
			return Result{}, fmt.Errorf("simtest: phase %q has a negative service rate", ph.Name)
		}
		for _, g := range ph.Load.Arrivals {
			if g.Count < 0 || g.Prio < 0 || g.Prio > cfg.MaxPrio {
				return Result{}, fmt.Errorf("simtest: phase %q group %+v outside the domain", ph.Name, g)
			}
		}
		for w := 0; w < ph.Windows; w++ {
			window++
			gate := ctrl.State()

			// Admission: every arrival faces the threshold in force.
			for _, g := range ph.Load.Arrivals {
				for i := int64(0); i < g.Count; i++ {
					switch {
					case gate.Admits(g.Prio):
						backlog++
						cum.Admitted++
						res.AdmittedByPrio[g.Prio]++
					case spill.Offer(g.Prio):
						cum.Deferred++
						res.DeferredByPrio[g.Prio]++
					default:
						cum.Shed++
						res.ShedByPrio[g.Prio]++
					}
				}
			}

			// Service: the workers drain up to the capacity.
			executed := backlog
			if executed > ph.Load.ServiceRate {
				executed = ph.Load.ServiceRate
			}
			backlog -= executed
			cum.Executed += executed

			cum.Pending = backlog + int64(spill.Len())
			cum.Spill = int64(spill.Len())

			rec := ctrl.Step(time.Duration(window)*cfg.Interval, cum)

			// Readmission: exactly the scheduler's tick-time behavior —
			// the quota the closed window allows moves the oldest spilled
			// tasks back into the structure.
			if q := backpressure.ReadmitQuota(cfg, rec.Sample); q > 0 {
				got := int64(spill.DrainUpToInto(drained[:min(q, int64(len(drained)))]))
				backlog += got
				cum.Readmitted += got
				res.Readmitted += got
			}

			res.Windows = append(res.Windows, WindowResult{
				Phase:   ph.Name,
				Window:  rec,
				Backlog: backlog,
				Spill:   int64(spill.Len()),
			})
		}
	}
	res.Final = ctrl.State()
	return res, nil
}

// StandardConfig is the canonical harness configuration: a 2^20
// priority domain, the most urgent 1/8 protected, a sojourn budget of
// five windows, and a small spillway so sustained overload actually
// sheds.
func StandardConfig() backpressure.Config {
	return backpressure.Config{
		MaxPrio:       1<<20 - 1,
		ProtectedBand: 1 << 17,
		SojournBudget: 50 * time.Millisecond,
		Interval:      10 * time.Millisecond,
		SpillCap:      512,
		ReadmitChunk:  128,
	}
}

// StandardPhases is the canonical underload → overload → recovery
// script: a well-provisioned lead-in the gate must leave alone, a 2×
// overload whose arrivals span the whole priority domain (the
// controller must tighten and the protected groups must still all get
// through), and a light recovery tail in which the spillway must drain
// and the threshold reopen.
func StandardPhases() []Phase {
	// Priorities: two protected groups (inside 2^17), three above.
	mixed := func(scale int64) []Group {
		return []Group{
			{Prio: 1 << 10, Count: scale},
			{Prio: 1 << 16, Count: scale},
			{Prio: 1 << 18, Count: 2 * scale},
			{Prio: 1 << 19, Count: 3 * scale},
			{Prio: 900_000, Count: 3 * scale},
		}
	}
	return []Phase{
		// 100 arrivals vs capacity 1000: deep underload.
		{Name: "underload", Windows: 20, Load: Load{Arrivals: mixed(10), ServiceRate: 1000}},
		// 2000 arrivals vs capacity 1000: sustained 2× overload.
		{Name: "overload", Windows: 40, Load: Load{Arrivals: mixed(200), ServiceRate: 1000}},
		// Light traffic again: the backlog and spillway must drain.
		{Name: "recovery", Windows: 40, Load: Load{Arrivals: mixed(10), ServiceRate: 1000}},
	}
}
