// Task accounting and termination. Every task is counted twice: once
// when it is created and once when it is retired (run by Execute, or
// eliminated as stale inside the structure). The scheduler is quiescent
// when the two totals agree.
//
// Who writes what:
//
//   - a worker place counts the tasks it spawns, executes and eliminates
//     in its own placeLedger — one padded line per place, written only by
//     the goroutine operating that place, so the spawn/execute/eliminate
//     path of a closed-world Run writes no shared cache line;
//   - tasks created outside the worker places (Run's roots, the Submit
//     family) are counted on the shared Scheduler.injected, raised before
//     the submission gate is checked and rolled back when the gate turns
//     the task away;
//   - a nested Ctx.Finish region keeps its own shared counter
//     (finishRegion) — a region is waited on by one place but retired on
//     by all of them, so it cannot be place-private. Tasks outside any
//     Finish carry no region at all.
package sched

import "sync/atomic"

// placeLedger is one worker place's task counters. Only the place's
// owner writes them (a load and a store, no read-modify-write); anyone
// may read them. 128 bytes per place with the counters at the front
// keeps two places' counters off one prefetch pair whatever the slice's
// alignment (the padCounter analysis).
//
//schedlint:padded
type placeLedger struct {
	spawned    atomic.Int64 // tasks created by Ctx.Spawn/SpawnK at this place
	executed   atomic.Int64 // tasks this place ran through Execute
	eliminated atomic.Int64 // stale tasks this place's pops retired unrun
	_          [104]byte
}

// spawn counts one task created at the place.
//
//schedlint:hotpath
func (l *placeLedger) spawn() { l.spawned.Store(l.spawned.Load() + 1) }

// retire counts one task the place ran to completion.
//
//schedlint:hotpath
func (l *placeLedger) retire() { l.executed.Store(l.executed.Load() + 1) }

// eliminate counts one stale task the place retired without running.
//
//schedlint:hotpath
func (l *placeLedger) eliminate() { l.eliminated.Store(l.eliminated.Load() + 1) }

// taskTotals is one scan of the accounting.
type taskTotals struct {
	injected, spawned    int64 // created outside / inside the worker places
	executed, eliminated int64 // retired
}

func (t taskTotals) outstanding() int64 {
	return t.injected + t.spawned - t.executed - t.eliminated
}

// scan reads every counter once, in the one order that is sound under
// concurrency: all retired counters first, then all created counters.
// The per-place counters only grow, a task is counted created before it
// can be retired, and injected never undercounts the accepted tasks (a
// tentative add is rolled back only for a task that will never run).
// So with T the instant between the two passes, the retired sum is at
// most the tasks retired by T and the created sum at least the tasks
// created by T: a scan that finds them equal proves nothing was
// outstanding at T, and an unequal one overestimates. The opposite
// order is unsound: read a running task's place as "spawned nothing",
// let the task spawn a child and retire, then read it as retired — the
// totals agree while the child is outstanding (TestScanOrder).
//
// between, when non-nil, runs between the two passes; tests script a
// schedule there.
func (s *Scheduler[T]) scan(between func()) taskTotals {
	var t taskTotals
	for i := range s.led {
		l := &s.led[i]
		t.executed += l.executed.Load()
		t.eliminated += l.eliminated.Load()
	}
	if between != nil {
		between()
	}
	for i := range s.led {
		t.spawned += s.led[i].spawned.Load()
	}
	t.injected = s.injected.Load()
	return t
}

// quiescent reports whether no task was outstanding at some instant
// during the call. It costs a read of every place's ledger line, so the
// workers ask only after a pop came back empty.
func (s *Scheduler[T]) quiescent() bool { return s.scan(nil).outstanding() == 0 }

// Pending returns the number of submitted-or-spawned tasks not yet
// executed or eliminated. It is a monitoring signal (e.g. for
// backpressure decisions): it reads one counter line per place, never
// reports less than was outstanding at an instant during the call, and
// under concurrency the value is immediately stale.
func (s *Scheduler[T]) Pending() int64 { return s.scan(nil).outstanding() }
