// The idle handoff. A task submitted through SubmitK while nothing else
// is outstanding would otherwise cross the injector lock, a lane's lock
// and header line and its advertised minimum before the polling worker's
// sweep finds it again. When a one-place scheduler's worker last came
// back from a pop empty, the producer instead writes the task into the
// place's handoff slot, and the worker runs it from there — the idea of
// the Go runtime's runnext and Tokio's LIFO slot, restricted so that the
// handoff is an exact pop:
//
//   - only the top-level loop of a serve-session worker parks the slot,
//     after a failed pop; nested Finish loops and closed-world Run never
//     do, and batches (SubmitAllK with two or more tasks, the gated
//     batch path, spillway readmission) never fill it;
//   - the producer reads the slot's state before it scans the task
//     accounting, so the scan instant falls inside the worker's pop
//     (the worker parked before it and has not taken the slot back),
//     and it fills the slot only when the scan finds its own task the
//     only one outstanding. A pop that returns the only outstanding task
//     honours every strategy's k and ρ bound (Wimmer et al., §2.1).
//
// Only a scheduler with one worker place has a slot. With more places a
// Submit would load every place's slot line, which each owner writes on
// every park and unpark, and a task running on another place counts as
// outstanding, so the scan often fails and the task is pushed anyway.
// Measured on a 2-vCPU VM (loadgen, singles at 300 000 tasks/s per
// place, relaxed-two): at one place the p50 sojourn fell from ≈ 1.4 to
// ≈ 0.9 µs with about 62 % of tasks handed; at two places with four
// producers it rose from ≈ 5.2 to ≈ 6.3 µs with 16 % handed, and at two
// or three places with one producer it did not move. Both multi-place
// shapes run more goroutines than that VM has cores.
//
// The worker takes its slot back with a CAS before it runs popped work
// or leaves its loop; a CAS that fails means a producer got there first,
// and the handed task runs before anything else. Handed tasks never
// enter the structure, so core.Stats Pushes, Pops and Eliminated
// exclude them; Stats().Handoffs counts them.
package sched

import (
	"runtime"
	"sync/atomic"
)

// The phases of a handoff slot, in the low two bits of its state word.
// The bits above count the owner's parks, so a producer's CAS from the
// word it read fails if the owner has taken the slot back and parked it
// again in between: the scan that read would have fallen into an
// earlier pop than the one the task would be handed to.
const (
	slotBusy    uint64 = iota // owner running tasks, or not parked
	slotWaiting               // owner's last pop came back empty; a producer may fill
	slotFilling               // a producer won the slot and is writing the envelope
	slotFull                  // the envelope is the owner's to run

	slotPhase uint64 = 3             // mask of the phase bits
	slotPark  uint64 = slotPhase + 1 // one park, in the bits above
)

// handoff is the worker place's handoff slot. The owner parks and takes
// it back; producers fill it. The envelope sits inline beside the state
// word, so a handoff moves the line the worker polls and nothing else.
// The pad follows the envelope and is longer than the 128-byte stride,
// so whatever T is, whatever the allocator places after the slot starts
// a full stride after the envelope ends; at T = int the slot is 256
// bytes.
//
//schedlint:padded
type handoff[T any] struct {
	state atomic.Uint64
	env   envelope[T]
	_     [232]byte
}

// park marks the slot waiting and returns the word it stored; owner only,
// from busy.
//
//schedlint:hotpath
func (h *handoff[T]) park() uint64 {
	w := (h.state.Load()&^slotPhase + slotPark) | slotWaiting
	h.state.Store(w)
	return w
}

// unpark takes back the slot parked with the word w. It fails when a
// producer has claimed the slot, whose task the owner must then take.
//
//schedlint:hotpath
func (h *handoff[T]) unpark(w uint64) bool {
	return h.state.CompareAndSwap(w, w&^slotPhase)
}

// take waits for the envelope a producer is writing into the slot parked
// with w, and returns the slot to busy.
//
//schedlint:hotpath
func (h *handoff[T]) take(w uint64) envelope[T] {
	full := w | slotFull
	for spins := 0; h.state.Load() != full; spins++ {
		if spins >= idleSpinCrowded {
			// The producer was descheduled between its CAS and its
			// store; let it run.
			runtime.Gosched()
		}
	}
	e := h.env
	// Drop the slot's reference so the task can be collected once it
	// has run, as the structure clears a popped slot.
	h.env = envelope[T]{}
	h.state.Store(w &^ slotPhase)
	return e
}

// handOff gives v to the parked worker place when it is the only task
// outstanding, and reports whether it did. The caller has counted v as
// injected and passed it through recording and admission.
//
//schedlint:hotpath
func (s *Scheduler[T]) handOff(v T) bool {
	h := s.slot
	if h == nil {
		return false
	}
	w := h.state.Load()
	// Scan after reading the parked word: the scan instant is then inside
	// the pop the owner parked in.
	if w&slotPhase != slotWaiting || s.scan(nil).outstanding() != 1 ||
		!h.state.CompareAndSwap(w, w&^slotPhase|slotFilling) {
		return false
	}
	// Count before publishing: once the slot reads full the task can run,
	// and Drain and Stop return, before this goroutine runs again.
	s.handoffs.Add(1)
	h.env = envelope[T]{v: v}
	h.state.Store(w | slotFull)
	return true
}

// runHanded takes the task handed into the slot parked with w and runs
// it, or retires it unrun when Config.Stale condemns it — the two ways a
// popped envelope leaves the structure.
//
//schedlint:hotpath
func (s *Scheduler[T]) runHanded(ctx *Ctx[T], h *handoff[T], w uint64) {
	e := h.take(w)
	if s.cfg.Stale != nil && s.cfg.Stale(e.v) {
		s.onEliminate(ctx.place, e)
		return
	}
	s.execute(ctx, e)
}
