package main

import (
	"testing"

	"repro/internal/sched"
)

// TestSweepRuns pins the run count -capture's single-run guard checks:
// it is the count of the lists the sweep iterates (sticksFor), so a
// strategy that ignores -stickiness runs once however long the list is.
func TestSweepRuns(t *testing.T) {
	for _, tc := range []struct {
		name        string
		strats      []sched.Strategy
		perStrategy int
		sticks      []int
		want        int
	}{
		{"hybrid ignores the stickiness list", []sched.Strategy{sched.Hybrid}, 1, []int{1, 4}, 1},
		{"relaxed-two sweeps it", []sched.Strategy{sched.RelaxedSampleTwo}, 1, []int{1, 4}, 2},
		{"one of each", []sched.Strategy{sched.Hybrid, sched.Relaxed}, 1, []int{1, 4, 16}, 4},
		{"headline six, two rates", allStrategies, 2, []int{0}, 12},
		{"headline six, two rates, two S", allStrategies, 2, []int{1, 8}, 16},
	} {
		if got := sweepRuns(tc.strats, tc.perStrategy, tc.sticks); got != tc.want {
			t.Errorf("%s: sweepRuns = %d, want %d", tc.name, got, tc.want)
		}
	}
}
