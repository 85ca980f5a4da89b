package pim

import (
	"fmt"
	"slices"

	"heteropim/internal/hw"
)

// Snapshot support for the delta-simulation layer (internal/core): a
// forked design-space candidate resumes from a checkpointed prefix of a
// base run, so the PIM-side state the executor carries — the Fig. 7
// status registers and the fixed-pool utilization integrals — must be
// reproducible in the fork exactly as a from-scratch run would have
// built them.

// RegistersSnapshot is a frozen deep copy of a register file. It is
// immutable once taken: one snapshot may instantiate any number of
// forked register files concurrently.
type RegistersSnapshot struct {
	regs Registers
}

// Snapshot deep-copies the register file's current state, including the
// per-slot bank lists (which may alias caller storage in the live
// file).
func (r *Registers) Snapshot() *RegistersSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &RegistersSnapshot{}
	r.copyTo(&s.regs)
	return s
}

// NewRegisters instantiates a fresh register file at the snapshot's
// state. Slots, generations and the free list continue from the
// snapshot, so a fork issues exactly the tokens the source run would
// have.
func (s *RegistersSnapshot) NewRegisters() *Registers {
	r := &Registers{}
	s.regs.copyTo(r)
	return r
}

// copyTo deep-copies r's state into dst, leaving dst's mutex alone.
func (r *Registers) copyTo(dst *Registers) {
	dst.bankBusy = slices.Clone(r.bankBusy)
	dst.progBusy = slices.Clone(r.progBusy)
	dst.free = slices.Clone(r.free)
	dst.slots = make([]regSlot, len(r.slots))
	for i, s := range r.slots {
		s.loc.Banks = slices.Clone(s.loc.Banks)
		dst.slots[i] = s
	}
}

// InFlight returns how many offloaded operations the snapshot holds
// open (their Complete calls happen in the forked suffix).
func (s *RegistersSnapshot) InFlight() int {
	n := 0
	for _, slot := range s.regs.slots {
		if slot.live {
			n++
		}
	}
	return n
}

// PoolAdvance is one recorded clock move: the timestamp the pool
// advanced to and the busy level it integrated over the interval ending
// there. A history of these pairs lets a fork reproduce the busy
// integral bit for bit even when the checkpointed prefix held grants
// open, because the per-interval float sums are re-accumulated in the
// exact order the base run accumulated them.
type PoolAdvance struct {
	At   hw.Seconds
	Busy int32
}

// RecordAdvances switches the pool's advance history on or off. With
// recording on, every Advance call that moves the clock appends a
// (timestamp, busy) pair, so a fork can integrate the same piecewise
// utilization sums — bit for bit — under a DIFFERENT unit budget (the
// integral is a float accumulation; one fused total*elapsed product
// would differ in the last bits from the per-interval sum a scratch run
// accumulates).
func (p *Pool) RecordAdvances(on bool) {
	if on {
		if p.advances == nil {
			p.advances = []PoolAdvance{}
		}
		return
	}
	p.advances = nil
}

// AdvanceHistory returns the recorded advance history (nil when
// recording is off). The slice is a copy.
func (p *Pool) AdvanceHistory() []PoolAdvance {
	if p.advances == nil {
		return nil
	}
	return append([]PoolAdvance(nil), p.advances...)
}

// ReplayHistory drives a fresh pool through a recorded advance history
// and then installs the checkpoint's final busy level and grant count.
// The pool must be untouched (no grants, no prior advances): replaying
// onto a used pool would interleave with real history and is rejected.
// The busy integral re-accumulates the recorded per-interval levels —
// identical across every unit budget the checkpoint is valid for, since
// a valid budget range by construction produced the same grant sizes —
// while the total integral accumulates the fork's OWN unit budget over
// the same intervals.
func (p *Pool) ReplayHistory(history []PoolAdvance, busy, grants int) error {
	if p.busy != 0 || p.grants != 0 || p.lastAdvance != 0 || p.totalUnitTime != 0 {
		return fmt.Errorf("pim: ReplayHistory on a pool already in use (busy=%d grants=%d t=%.9g)",
			p.busy, p.grants, p.lastAdvance)
	}
	if busy < 0 || busy > p.total || grants < 0 {
		return fmt.Errorf("pim: ReplayHistory busy=%d grants=%d on a %d-unit pool", busy, grants, p.total)
	}
	for _, adv := range history {
		dt := adv.At - p.lastAdvance
		if dt <= 0 {
			continue
		}
		p.busyUnitTime += float64(adv.Busy) * dt
		p.totalUnitTime += float64(p.total) * dt
		p.lastAdvance = adv.At
	}
	p.busy = busy
	p.grants = grants
	return nil
}
