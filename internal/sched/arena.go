package sched

import (
	"sync/atomic"

	"repro/internal/segarray"
)

// blockArena is the segmented scratch-buffer pool behind the serve-mode
// submit and readmission paths: SubmitAllK and the spillway drain each
// need a short-lived []E staging buffer per call (envelopes to PushK,
// deferred tasks out of the spillway), and allocating it per call is
// exactly the per-task garbage the zero-allocation hot path forbids.
//
// Storage is a segarray.Array of block slots in which the slot pointer
// doubles as the claim token: a slot holds the block while it is free
// and nil while some caller is using it, so claim and release are
// single CAS operations and the structure is lock-free. The slot
// population only ever grows — by CAS-appending segarray segments — to
// one slot per block a dry get had to mint: the peak number of
// concurrent claimants, plus the occasional block minted by a get that
// scanned past a slot just before its block came back. Every block's
// backing buffer is retained across uses, so steady-state traffic
// allocates nothing. (The segarray cursor/retirement machinery is
// unused: a pool this size is meant to live as long as the scheduler.)
//
// PushK and Spillway.Offer copy the staged values into the structure,
// so a released block's buffer is dead data — it is overwritten by the
// next claimant, never aliased by a live task.
type blockArena[E any] struct {
	slots *segarray.Array[block[E]]
	n     atomic.Int64 // slots ever published (grow-only high-water mark)
}

// block is one pooled scratch buffer.
type block[E any] struct {
	buf []E
}

// grow returns the block's buffer resized to length want, reallocating
// only when the retained capacity falls short.
func (b *block[E]) grow(want int) []E {
	if cap(b.buf) < want {
		//schedlint:ignore arena block growth is a retained high-water mark; steady state re-uses the buffer
		b.buf = make([]E, want)
	}
	return b.buf[:want]
}

func newBlockArena[E any]() *blockArena[E] {
	return &blockArena[E]{slots: segarray.New[block[E]](8, 1)}
}

// get claims a pooled block, or returns a fresh empty one when every
// published block is claimed (the population then grows when the fresh
// block is put back).
func (a *blockArena[E]) get() *block[E] {
	n := a.n.Load()
	for i := int64(0); i < n; i++ {
		s := a.slots.Slot(i)
		if b := s.Load(); b != nil && s.CompareAndSwap(b, nil) {
			return b
		}
	}
	//schedlint:ignore a dry pool mints one block that joins the population on put — growth events, not steady state
	return &block[E]{}
}

// put releases a block back to the pool: into the first empty slot, or
// into a freshly published one when every slot is occupied (which is
// how blocks created by a dry get join the population).
func (a *blockArena[E]) put(b *block[E]) {
	n := a.n.Load()
	for i := int64(0); i < n; i++ {
		s := a.slots.Slot(i)
		if s.Load() == nil && s.CompareAndSwap(nil, b) {
			return
		}
	}
	// A put that loaded n after this reservation sees the new slot empty
	// and may fill it first: reserve again rather than store over that
	// block and lose it.
	for {
		if a.slots.Slot(a.n.Add(1)-1).CompareAndSwap(nil, b) {
			return
		}
	}
}
