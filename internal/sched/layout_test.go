package sched

import (
	"reflect"
	"testing"
)

// TestSubmitCountersKeepTheirDistance holds Scheduler's submit group
// (see the struct) until ROADMAP item 8 (ii) makes field placement an
// analyzer: the counters every Submit read-modify-writes sit together
// within 128 bytes, and no other field — cfg (Execute), ds, stopping and
// tenants, which the workers read on every pop episode and every failed
// pop, among them — comes within 128 bytes of the group on
// either side. 128 bytes apart by offset is apart by cache-line pair at
// any base address, so the test does not depend on where the allocator
// puts a Scheduler.
func TestSubmitCountersKeepTheirDistance(t *testing.T) {
	const pair = 128
	group := map[string]bool{
		"injected": true, "nextInj": true, "admittedN": true, "deferredN": true,
		"shed": true, "readmitted": true, "quotaShed": true, "quotaDeferred": true,
		"handoffs": true,
	}
	st := reflect.TypeOf(Scheduler[int64]{})
	lo, hi := st.Size(), uintptr(0)
	for i := 0; i < st.NumField(); i++ {
		if f := st.Field(i); group[f.Name] {
			delete(group, f.Name)
			lo, hi = min(lo, f.Offset), max(hi, f.Offset+f.Type.Size())
		}
	}
	if len(group) > 0 {
		t.Fatalf("Scheduler has no field(s) %v: update the submit group here", group)
	}
	if hi-lo > pair {
		t.Errorf("the submit group spans %d bytes, want at most %d", hi-lo, pair)
	}
	polled := map[string]bool{"cfg": false, "ds": false, "stopping": false, "tenants": false}
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		end := f.Offset + f.Type.Size()
		if f.Name == "_" || (f.Offset >= lo && end <= hi) {
			continue
		}
		if _, ok := polled[f.Name]; ok {
			polled[f.Name] = true
		}
		if end+pair > lo && f.Offset < hi+pair {
			t.Errorf("Scheduler.%s [%d, %d) is within %d bytes of the submit group [%d, %d)", f.Name, f.Offset, end, pair, lo, hi)
		}
	}
	for name, seen := range polled {
		if !seen {
			t.Errorf("Scheduler has no field %s: the worker-polled fields this test names have moved", name)
		}
	}
	if st.Size() < hi+pair {
		t.Errorf("Scheduler ends %d bytes after the submit group, want at least %d", st.Size()-hi, pair)
	}
}
