// Package simtest is a deterministic, virtual-clock simulation harness
// for the placement controller: it replays scripted load phases
// (balanced contention, producer-group imbalance, drain) against a
// Controller and exposes the full per-window trace, so tests can assert
// convergence, bounds, and monotone reactions without threads, sleeps,
// or real time — the ROADMAP's required validation step before the
// controller is pointed at real hardware (NUMA) counters.
//
// The harness closes the loop with a small analytic plant model of the
// scheduler + grouped relaxed MultiQueue. Per window, given the
// controller's current group count g:
//
//   - service capacity is ServiceRate tasks (one per pop episode);
//   - lane contention scales with how many places share each group's
//     lanes: Contention·(Places/g − 1) events per episode, zero once
//     every place has its own group — splitting relieves contention;
//   - cross-group pops scale with how unevenly the traffic spreads over
//     a g-way partition: a fraction Imbalance·(1 − 1/g) of obtained
//     tasks come from foreign groups, zero when flat — merging relieves
//     stealing. Steal attempts track the same quantity.
//
// Everything is integer/float arithmetic on scripted inputs: no clocks,
// no randomness, so a replay is bit-identical run to run, exactly like
// the adapt and backpressure simtest harnesses this one is patterned
// on.
package simtest

import (
	"fmt"
	"time"

	"repro/internal/placement"
)

// Load models the plant for one phase: how the simulated scheduler
// responds, per window, to the controller's current group count.
type Load struct {
	// Arrivals is the number of tasks submitted per window.
	Arrivals int64
	// ServiceRate is the number of pop episodes the workers complete
	// per window; each episode obtains one task while the backlog
	// lasts.
	ServiceRate int64
	// Places is the place count the contention model divides over.
	Places int64
	// Contention scales lane contention: Contention·(Places/g − 1)
	// failed try-locks per pop episode (0 once g ≥ Places).
	Contention float64
	// Imbalance ∈ [0, 1] scales cross-group stealing: a fraction
	// Imbalance·(1 − 1/g) of obtained tasks come from foreign groups
	// (0 when the structure is flat).
	Imbalance float64
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
	Window  placement.Window
	Pending int64
}

// Result is the full replay trace.
type Result struct {
	Windows []WindowResult
	Final   placement.State
}

// Run replays the scripted phases against a fresh controller seeded at
// seed. The virtual clock advances one cfg.Interval per window; the
// plant's counters accumulate across phases exactly like a real
// structure's do.
func Run(cfg placement.Config, seed placement.State, phases []Phase) (Result, error) {
	if err := cfg.Validate(); err != nil { // fills the defaults the plant reads
		return Result{}, err
	}
	ctrl, err := placement.NewController(cfg, seed)
	if err != nil {
		return Result{}, err
	}
	var (
		res     Result
		cum     placement.Cumulative
		backlog int64
		now     time.Duration
	)
	for _, ph := range phases {
		if ph.Windows < 0 {
			return Result{}, fmt.Errorf("simtest: phase %q has negative window count", ph.Name)
		}
		for w := 0; w < ph.Windows; w++ {
			g := int64(ctrl.State().Groups)
			backlog += ph.Load.Arrivals
			pops := backlog
			if pops > ph.Load.ServiceRate {
				pops = ph.Load.ServiceRate
			}
			backlog -= pops
			episodes := ph.Load.ServiceRate
			fails := episodes - pops
			if fails < 0 {
				fails = 0
			}
			sharing := float64(ph.Load.Places)/float64(g) - 1
			if sharing < 0 {
				sharing = 0
			}
			crossFrac := ph.Load.Imbalance * (1 - 1/float64(g))
			cross := int64(float64(pops) * crossFrac)

			cum.Pops += pops
			cum.PopFailures += fails
			cum.LaneContention += int64(float64(episodes) * ph.Load.Contention * sharing)
			cum.Steals += cross
			cum.CrossGroupPops += cross
			cum.Pending = backlog

			now += cfg.Interval
			win := ctrl.Step(now, cum)
			res.Windows = append(res.Windows, WindowResult{
				Phase:   ph.Name,
				Window:  win,
				Pending: backlog,
			})
		}
	}
	res.Final = ctrl.State()
	return res, nil
}
