// Package simtest is a deterministic, virtual-clock simulation harness
// for the adapt controller: it replays scripted load phases (idle →
// burst → skewed → drain) against a Controller and exposes the full
// per-window trace, so tests can assert convergence, bounds, and
// monotone reactions without threads, sleeps, or real time.
//
// The harness closes the loop with a small analytic plant model of the
// scheduler + relaxed MultiQueue. Per window, given the controller's
// current (S, B):
//
//   - service capacity is ServiceRate·√B pop episodes' worth of tasks —
//     batching amortizes synchronization with diminishing returns;
//   - contention events (failed try-locks + bounded re-samples) occur at
//     Contention·(S−1) per pop episode — stickiness piles places onto
//     the same lanes, and S = 1 is contention-free by construction;
//   - the rank-error p99 is BaseRank·S·B — both knobs coarsen ordering
//     roughly multiplicatively (README's S·B rule of thumb).
//
// Everything is integer/float arithmetic on scripted inputs: no clocks,
// no randomness, so a replay is bit-identical run to run. This makes the
// package the repo's template for testing future auto-tuning loops
// (NUMA placement, backpressure): script phases, model the plant's
// response to the knob, assert the trace.
package simtest

import (
	"fmt"
	"math"
	"time"

	"repro/internal/adapt"
)

// Load models the plant for one phase: how the simulated scheduler
// responds, per window, to the controller's current state.
type Load struct {
	// Arrivals is the number of tasks submitted per window.
	Arrivals int64
	// ServiceRate is the number of pop episodes the workers complete per
	// window; each episode obtains up to B tasks but with diminishing
	// returns (capacity = ServiceRate·√B tasks).
	ServiceRate int64
	// BaseRank scales the rank-error p99: the simulated estimate is
	// BaseRank·S·B whenever tasks flowed in the window (0 models a
	// workload whose ordering quality never degrades).
	BaseRank float64
	// Contention scales contention events: Contention·(S−1) failed
	// try-locks or re-samples per pop episode.
	Contention float64
}

// Phase is one scripted segment of the replay.
type Phase struct {
	Name    string
	Windows int
	Load    Load
}

// WindowResult is one window of the trace: the phase it belongs to, the
// controller's decision record, and the plant's backlog after the
// window.
type WindowResult struct {
	Phase   string
	Window  adapt.Window
	Pending int64
}

// Result is the full replay trace.
type Result struct {
	Windows []WindowResult
	Final   adapt.State
}

// Run replays the scripted phases against a fresh controller seeded at
// seed. The virtual clock advances one cfg.Interval per window; the
// plant's counters accumulate across phases exactly like a real
// scheduler's do.
func Run(cfg adapt.Config, seed adapt.State, phases []Phase) (Result, error) {
	if err := cfg.Validate(); err != nil { // fills the defaults the plant reads
		return Result{}, err
	}
	ctrl, err := adapt.NewController(cfg, seed)
	if err != nil {
		return Result{}, err
	}
	var (
		cum     adapt.Cumulative
		pending int64
		res     Result
		window  int
	)
	for _, ph := range phases {
		if ph.Windows < 1 {
			return Result{}, fmt.Errorf("simtest: phase %q has %d windows", ph.Name, ph.Windows)
		}
		if ph.Load.Arrivals < 0 || ph.Load.ServiceRate < 0 || ph.Load.BaseRank < 0 || ph.Load.Contention < 0 {
			return Result{}, fmt.Errorf("simtest: phase %q has negative load parameters", ph.Name)
		}
		for w := 0; w < ph.Windows; w++ {
			window++
			st := ctrl.State()
			pending += ph.Load.Arrivals

			// Service: episodes run whenever workers poll; they obtain
			// tasks while the backlog lasts and fail (spuriously or on
			// true emptiness) afterwards.
			capacity := int64(float64(ph.Load.ServiceRate) * math.Sqrt(float64(st.Batch)))
			executed := pending
			if executed > capacity {
				executed = capacity
			}
			pending -= executed
			episodes := int64(0)
			if st.Batch > 0 {
				episodes = (executed + int64(st.Batch) - 1) / int64(st.Batch)
			}
			failures := ph.Load.ServiceRate - episodes
			if failures < 0 {
				failures = 0
			}

			cum.Pops += executed
			cum.PopFailures += failures
			if st.Batch > 1 && executed > 0 {
				cum.BatchPops += episodes
			}
			contention := int64(ph.Load.Contention * float64(st.Stickiness-1) * float64(episodes))
			cum.PopRetries += contention / 2
			cum.LaneContention += contention - contention/2
			if executed > 0 {
				cum.Resticks += episodes / int64(st.Stickiness)
			}
			cum.Pending = pending
			cum.RankErrP99 = -1
			if executed > 0 {
				cum.RankErrP99 = ph.Load.BaseRank * float64(st.Stickiness) * float64(st.Batch)
			}

			rec := ctrl.Step(time.Duration(window)*cfg.Interval, cum)
			res.Windows = append(res.Windows, WindowResult{
				Phase:   ph.Name,
				Window:  rec,
				Pending: pending,
			})
		}
	}
	res.Final = ctrl.State()
	return res, nil
}

// StandardPhases is the canonical idle → burst → skewed → drain script
// used by the convergence tests: a quiet lead-in, a heavy well-behaved
// burst the controller should exploit (grow S and B), a skewed phase
// whose ordering quality collapses (BaseRank up 8×) forcing a backoff
// under the budget, and a drain back to idle where the state must hold.
func StandardPhases() []Phase {
	burst := Load{Arrivals: 4000, ServiceRate: 1000, BaseRank: 1, Contention: 0.002}
	skew := burst
	skew.BaseRank = 8
	drain := Load{Arrivals: 0, ServiceRate: 1000, BaseRank: 1, Contention: 0.002}
	return []Phase{
		{Name: "idle", Windows: 10, Load: Load{}},
		{Name: "burst", Windows: 40, Load: burst},
		{Name: "skewed", Windows: 40, Load: skew},
		{Name: "drain", Windows: 20, Load: drain},
	}
}
