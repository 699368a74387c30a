// Tenant-fairness serve machinery: the per-tenant ledger the fairness
// controller (internal/fair) drives and samples. Config.TenantWeights
// turns it on; the controller computes per-window admission quotas and
// starvation floors from the weight vector and publishes them here, and
// the admission gate (admit.go) consults them through the ledger's
// padded atomics.
package sched

import (
	"sync/atomic"
	"time"

	"repro/internal/fair"
)

// padCounter is a stride-padded atomic counter. The per-tenant arrays
// are hammered by concurrent producers indexing different tenants, so
// neighbors must not share a line — and a single 64-byte line is not
// enough: the arrays carry no 64-byte alignment guarantee and the
// spatial prefetcher pulls adjacent lines in 128-byte pairs, so
// 64-byte elements still false-share through the prefetched sibling
// line (the same analysis as relaxed.sticky). 128 bytes per counter
// keeps any two tenants' counters off one prefetch pair.
//
//schedlint:padded
type padCounter struct {
	v atomic.Int64
	_ [120]byte
}

// tenantLedger is one tenant's row of hot-path atomics: the gate inputs
// the fairness controller publishes (quota, floor), the window sequence
// the gate consumes (win), and the cumulative admission ledger. Every
// field is its own prefetch pair, so producers hammering different
// tenants — or different counters of one tenant — never false-share.
//
//schedlint:padded
type tenantLedger struct {
	quota, floor, win                 padCounter
	arrived, admitted, deferred, shed padCounter
	readmitted, executed, pending     padCounter
}

// counters snapshots the cumulative ledger. The Pending estimate clamps
// at zero: worker-spawned tasks are attributed to their tenant only at
// execution, so a spawn-heavy tenant can execute more than it admitted.
func (l *tenantLedger) counters() TenantCounters {
	p := l.pending.v.Load()
	if p < 0 {
		p = 0
	}
	return TenantCounters{
		Arrived:    l.arrived.v.Load(),
		Admitted:   l.admitted.v.Load(),
		Deferred:   l.deferred.v.Load(),
		Shed:       l.shed.v.Load(),
		Readmitted: l.readmitted.v.Load(),
		Executed:   l.executed.v.Load(),
		Pending:    p,
	}
}

// TenantCounters is one tenant's cumulative admission ledger, as
// reported by Scheduler.TenantCounters: every counter is a session
// total, Pending is the instantaneous outstanding estimate.
type TenantCounters struct {
	Arrived    int64 // submissions offered (before any gate)
	Admitted   int64 // accepted past both gates
	Deferred   int64 // parked in the spillway (quota or threshold)
	Shed       int64 // rejected outright
	Readmitted int64 // spilled tasks re-submitted
	Executed   int64 // tasks the workers completed
	Pending    int64 // outstanding (admitted or parked, not yet executed)
}

// tenantOf maps a task to its tenant index, clamped into
// [0, tenants): a misbehaving Tenant projection degrades to
// attribution noise instead of an index fault on the hot path.
func (s *Scheduler[T]) tenantOf(v T) int {
	t := s.cfg.Tenant(v)
	if t < 0 {
		return 0
	}
	if t >= s.tenants {
		return s.tenants - 1
	}
	return t
}

// fairSnapshot collects the cumulative per-tenant totals the fairness
// controller differences into window samples. The scratch Cumulative
// is reused across windows — the controller keeps its own copy.
func (s *Scheduler[T]) fairSnapshot() fair.Cumulative {
	c := &s.fairCum
	for t := range s.ten {
		tc := s.ten[t].counters()
		c.Arrived[t], c.Admitted[t], c.Deferred[t], c.Shed[t] = tc.Arrived, tc.Admitted, tc.Deferred, tc.Shed
		c.Readmitted[t], c.Executed[t], c.Pending[t] = tc.Readmitted, tc.Executed, tc.Pending
	}
	return *c
}

// fairTick closes one fairness control window: sample the per-tenant
// counters, step the controller, and publish its quotas/floors to the
// Submit hot path. The per-window admission counters are reset at the
// boundary — the race with in-flight submissions is benign (a task
// lands in one window or the next).
func (s *Scheduler[T]) fairTick(at time.Duration) fair.Window {
	w := s.fairCtl.Step(at, s.fairSnapshot())
	s.applyFair(w.State)
	return w
}

// applyFair publishes a controller decision to the hot-path atomics:
// quotas and floors first, then the gating flag, so a producer that
// observes the gate engaged never reads the previous window's zeros.
func (s *Scheduler[T]) applyFair(st fair.State) {
	for t := range s.ten {
		led := &s.ten[t]
		if st.Gated {
			led.quota.v.Store(st.Quotas[t])
			led.floor.v.Store(st.Floors[t])
		}
		led.win.v.Store(0)
	}
	s.tenGated.Store(st.Gated)
}

// FairState reports the tenant-fairness controller state currently in
// force (fully open before the first window, the last decision after).
// ok is false when the scheduler was not built with
// Config.TenantWeights.
func (s *Scheduler[T]) FairState() (fair.State, bool) {
	if s.tenants == 0 {
		return fair.State{}, false
	}
	return s.fairCtl.State(), true
}

// FairTrace returns a copy of the fairness controller's per-window
// decision trace of the current (or most recent) serve session, oldest
// window first. Only the most recent maxTraceWindows windows are
// retained. Nil without Config.TenantWeights.
func (s *Scheduler[T]) FairTrace() []fair.Window {
	if s.fairCtl == nil {
		return nil
	}
	return s.fairCtl.Trace()
}

// TenantCounters returns a snapshot of every tenant's cumulative
// admission ledger (nil without Config.TenantWeights). Counters are
// totals since construction; under concurrency the snapshot is
// per-counter atomic, not globally consistent.
func (s *Scheduler[T]) TenantCounters() []TenantCounters {
	if s.tenants == 0 {
		return nil
	}
	out := make([]TenantCounters, s.tenants)
	for t := range out {
		out[t] = s.ten[t].counters()
	}
	return out
}
