// Tenant-fairness serve machinery: the per-tenant admission gate the
// fairness controller (internal/fair) drives. Config.TenantWeights
// turns it on; the controller computes per-window admission quotas and
// starvation floors from the weight vector, and the Submit hot path
// consults them through padded per-tenant atomics — the tenant gate
// sits in front of the backpressure priority threshold, and a floor
// admission bypasses the threshold entirely so no tenant can be
// starved by another tenant's priority inflation.
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

// loadAll copies every counter of xs into dst (sized len(xs)).
func loadAll(dst []int64, xs []padCounter) {
	for i := range xs {
		dst[i] = xs[i].v.Load()
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

// submitTenant is the tenant-aware tail of SubmitK: the two-stage gate
// (tenant floor, tenant quota, then the backpressure priority
// threshold) plus per-tenant attribution. The caller has already
// raised pending, checked accepting and recorded the arrival.
//
//schedlint:hotpath
func (s *Scheduler[T]) submitTenant(k int, v T) error {
	t := s.tenantOf(v)
	s.tenArrived[t].v.Add(1)
	if s.tenGated.Load() && s.cfg.Priority(v) >= s.bpCfg.ProtectedBand {
		// The protected band bypasses the tenant gate too — it is the
		// operator's "never gated" contract, and quota-deferring it both
		// broke that contract and cut off the admission flow that
		// anchors the capacity estimate. With tenants that cannot be
		// trusted to label priorities honestly, shrink or zero
		// ProtectedBand so the quotas police everything.
		seq := s.tenWin[t].v.Add(1)
		if seq <= s.tenFloor[t].v.Load() {
			// Floor admission: unconditional, bypassing the priority
			// threshold — the anti-starvation guarantee.
			return s.pushTenant(k, v, t)
		}
		if seq > s.tenQuota[t].v.Load() {
			return s.deferOrShedTenant(k, v, t, true)
		}
	}
	if s.cfg.Priority(v) > s.bpGate.Load() {
		return s.deferOrShedTenant(k, v, t, false)
	}
	return s.pushTenant(k, v, t)
}

// pushTenant admits one tenant-attributed task into the structure.
//
//schedlint:hotpath
func (s *Scheduler[T]) pushTenant(k int, v T, t int) error {
	s.admittedN.Add(1)
	s.tenAdmitted[t].v.Add(1)
	s.tenPending[t].v.Add(1)
	s.serveFin.pending.Add(1)
	s.spawned.Add(1)
	inj := s.injectors[s.nextInj.Add(1)%uint64(len(s.injectors))]
	inj.mu.Lock()
	s.ds.Push(inj.place, k, envelope[T]{v: v, fin: s.serveFin})
	inj.mu.Unlock()
	return nil
}

// deferOrShedTenant is deferOrShed with per-tenant attribution.
// byQuota marks a rejection by the tenant quota rather than the
// priority threshold — the split the TenantShed/TenantDeferred
// counters report.
//
//schedlint:hotpath
func (s *Scheduler[T]) deferOrShedTenant(k int, v T, t int, byQuota bool) error {
	s.serveFin.pending.Add(1)
	s.spawned.Add(1)
	if s.spill.Offer(deferredTask[T]{env: envelope[T]{v: v, fin: s.serveFin}, k: k}) {
		s.deferredN.Add(1)
		s.tenDeferred[t].v.Add(1)
		s.tenPending[t].v.Add(1)
		if byQuota {
			s.quotaDeferred.Add(1)
		}
		if !s.accepting.Load() {
			//schedlint:ignore stop-racing submissions drain the spillway once; a shutdown edge, not the steady submit path
			s.flushSpill()
		}
		return nil
	}
	s.serveFin.pending.Add(-1)
	s.spawned.Add(-1)
	s.pending.Add(-1)
	s.shed.Add(1)
	s.tenShed[t].v.Add(1)
	if byQuota {
		s.quotaShed.Add(1)
	}
	return ErrShed
}

// fairSnapshot collects the cumulative per-tenant totals the fairness
// controller differences into window samples. The scratch Cumulative
// is reused across windows — the controller keeps its own copy. The
// Pending estimate clamps at zero: worker-spawned tasks are attributed
// to their tenant only at execution, so a spawn-heavy tenant can
// execute more than it admitted.
func (s *Scheduler[T]) fairSnapshot() fair.Cumulative {
	c := &s.fairCum
	loadAll(c.Arrived, s.tenArrived)
	loadAll(c.Admitted, s.tenAdmitted)
	loadAll(c.Deferred, s.tenDeferred)
	loadAll(c.Shed, s.tenShed)
	loadAll(c.Readmitted, s.tenReadmitted)
	loadAll(c.Executed, s.tenExecuted)
	for t := range s.tenPending {
		p := s.tenPending[t].v.Load()
		if p < 0 {
			p = 0
		}
		c.Pending[t] = p
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
	if st.Gated {
		for t := 0; t < s.tenants; t++ {
			s.tenQuota[t].v.Store(st.Quotas[t])
			s.tenFloor[t].v.Store(st.Floors[t])
		}
	}
	for t := 0; t < s.tenants; t++ {
		s.tenWin[t].v.Store(0)
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
		p := s.tenPending[t].v.Load()
		if p < 0 {
			p = 0
		}
		out[t] = TenantCounters{
			Arrived:    s.tenArrived[t].v.Load(),
			Admitted:   s.tenAdmitted[t].v.Load(),
			Deferred:   s.tenDeferred[t].v.Load(),
			Shed:       s.tenShed[t].v.Load(),
			Readmitted: s.tenReadmitted[t].v.Load(),
			Executed:   s.tenExecuted[t].v.Load(),
			Pending:    p,
		}
	}
	return out
}
