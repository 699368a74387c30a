// The serve-mode admission gate. Every externally submitted task — one
// at a time through SubmitK or a batch at a time through
// SubmitAllKOutcomes — passes the same pipeline exactly once:
//
//	tenant floor → tenant quota → priority threshold → spillway-or-shed
//
// admit is the decision (the first three stages), park is the last
// stage for a task the decision turned away. The callers differ only in
// how an admitted task reaches the structure: one Push under the
// injector lock, or one PushK for the admitted subset of a batch.
// Spillway readmission re-checks the quota stage through the same
// tenantLedger.gate predicate.
package sched

// gate consumes one slot of the tenant's window sequence and classifies
// it against the fairness controller's last decision: within the
// starvation floor, or past the window quota. The benign race with
// applyFair's reset lands a task in one window or the next.
func (l *tenantLedger) gate() (floored, overQuota bool) {
	seq := l.win.v.Add(1)
	return seq <= l.floor.v.Load(), seq > l.quota.v.Load()
}

// admit is the one per-task admission decision (Config.Backpressure
// only). threshold and tenGated are the gate state the caller read — once
// per task on the single path, once per batch on the batch path, so a
// batch is internally consistent even while the controllers move the
// gates. It returns the task's tenant (0 without tenancy), whether the
// task is admitted, and — when it is not — whether the tenant quota
// rather than the priority threshold turned it away (the split the
// TenantShed/TenantDeferred counters report). The per-tenant arrival
// and admission attribution happens here; park attributes the rest.
//
//schedlint:hotpath
func (s *Scheduler[T]) admit(v T, threshold int64, tenGated bool) (ten int, ok, byQuota bool) {
	prio := s.cfg.Priority(v)
	ok = prio <= threshold
	if s.tenants == 0 {
		return 0, ok, false
	}
	ten = s.tenantOf(v)
	led := &s.ten[ten]
	led.arrived.v.Add(1)
	// The protected band bypasses the tenant gate like it bypasses the
	// threshold — it is the operator's "never gated" contract, and
	// quota-deferring it both broke that contract and cut off the
	// admission flow that anchors the capacity estimate. With tenants
	// that cannot be trusted to label priorities honestly, shrink or
	// zero ProtectedBand so the quotas police everything.
	if tenGated && prio >= s.bpCfg.ProtectedBand {
		if floored, over := led.gate(); floored {
			// Floor admission: unconditional, bypassing the priority
			// threshold — the anti-starvation guarantee.
			ok = true
		} else if over {
			ok, byQuota = false, true
		}
	}
	if ok {
		led.admitted.v.Add(1)
		led.pending.v.Add(1)
	}
	return ten, ok, byQuota
}

// park is the last gate stage for a task admit turned away: offer it to
// the spillway (Deferred — accepted, it will execute at the latest when
// Stop flushes the spillway), or, when the spillway is full, roll its
// accounting back and reject it (Shed). The caller has already raised
// injected.
//
//schedlint:hotpath
func (s *Scheduler[T]) park(k int, v T, ten int, byQuota bool) Outcome {
	if s.spill.Offer(deferredTask[T]{env: envelope[T]{v: v}, k: k}) {
		s.deferredN.Add(1)
		if s.tenants > 0 {
			s.ten[ten].deferred.v.Add(1)
			s.ten[ten].pending.v.Add(1)
			if byQuota {
				s.quotaDeferred.Add(1)
			}
		}
		if !s.accepting.Load() {
			// Stop may have flushed the spillway between the caller's gate
			// check and the Offer; flush again so the envelope is not
			// stranded (see flushSpill).
			//schedlint:ignore stop-racing submissions drain the spillway once; a shutdown edge, not the steady submit path
			s.flushSpill()
		}
		return Deferred
	}
	s.injected.Add(-1)
	s.shed.Add(1)
	if s.tenants > 0 {
		s.ten[ten].shed.v.Add(1)
		if byQuota {
			s.quotaShed.Add(1)
		}
	}
	return Shed
}
