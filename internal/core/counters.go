package core

import "sync/atomic"

// Counters is the per-place counter block. Counters are written only by
// the owning place's goroutine but may be read by Stats at any time, so
// they are atomics; the trailing pad rounds the element up to a
// 256-byte stride so that in a contiguous slice no two places' blocks
// can share a cache line or a 128-byte spatial-prefetch pair — the
// slice backing carries no alignment guarantee, and the hottest fields
// (Pushes/Pops, bumped on every operation) sit at the front of each
// block where an undersized stride would put them right behind the
// previous place's tail.
type Counters struct {
	Pushes       atomic.Int64
	Pops         atomic.Int64
	PopFailures  atomic.Int64
	BatchPushes  atomic.Int64
	BatchPops    atomic.Int64
	PopRetries   atomic.Int64
	Resticks     atomic.Int64
	Eliminated   atomic.Int64
	TailAdvances atomic.Int64
	Probes       atomic.Int64
	ProbeHits    atomic.Int64
	Publishes    atomic.Int64
	Spies        atomic.Int64
	SpyHits      atomic.Int64
	Steals       atomic.Int64
	StealHits    atomic.Int64
	StolenTasks  atomic.Int64
	_            [120]byte
}

// Snapshot converts the counter block into a Stats value.
func (c *Counters) Snapshot() Stats {
	return Stats{
		Pushes:       c.Pushes.Load(),
		Pops:         c.Pops.Load(),
		PopFailures:  c.PopFailures.Load(),
		BatchPushes:  c.BatchPushes.Load(),
		BatchPops:    c.BatchPops.Load(),
		PopRetries:   c.PopRetries.Load(),
		Resticks:     c.Resticks.Load(),
		Eliminated:   c.Eliminated.Load(),
		TailAdvances: c.TailAdvances.Load(),
		Probes:       c.Probes.Load(),
		ProbeHits:    c.ProbeHits.Load(),
		Publishes:    c.Publishes.Load(),
		Spies:        c.Spies.Load(),
		SpyHits:      c.SpyHits.Load(),
		Steals:       c.Steals.Load(),
		StealHits:    c.StealHits.Load(),
		StolenTasks:  c.StolenTasks.Load(),
	}
}

// SumCounters aggregates a slice of per-place counter blocks.
func SumCounters(cs []Counters) Stats {
	var s Stats
	for i := range cs {
		s.Add(cs[i].Snapshot())
	}
	return s
}
