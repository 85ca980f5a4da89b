package pim

import (
	"fmt"
	"math"
	"sync"

	"heteropim/internal/hw"
)

// Registers models the hardware status registers of Fig. 7: one register
// per bank of fixed-function PIMs plus one per programmable PIM
// processor. Each register exposes whether the corresponding hardware is
// idle, and a completion epoch the runtime can poll. The registers are
// what make the paper's software-driven scheduling cheap: the runtime on
// the CPU or on the programmable PIM queries them instead of
// interrupting anyone.
//
// Storage is sized by the number of IN-FLIGHT operations, not the total
// ever offloaded: a completed operation's slot is recycled. A token
// carries its slot and the slot's generation, so every call addresses
// its slot directly, and a completed token stays distinguishable from
// a never-issued one: a slot issued generations 1 to gen, and only the
// latest can be in flight (the hardware keeps one completion bit per
// epoch, not a location history). This is what keeps a steady-state
// run's offload traffic free of per-operation allocations and hashing.
type Registers struct {
	mu       sync.Mutex
	bankBusy []int // busy kernel count per bank
	progBusy []int // busy kernel count per programmable processor
	slots    []regSlot
	free     []int32 // recycled slots, reused last-freed first
}

// regSlot is one operation register: the location of its latest token
// and that token's generation.
type regSlot struct {
	loc Location
	// gen is the generation of the slot's latest token, counting from 1;
	// live reports that token still in flight.
	gen  uint32
	live bool
}

// OpToken identifies one offloaded operation in the low-level API: its
// register slot in the low 32 bits, the slot's generation above them.
// The zero token is never issued.
type OpToken uint64

// token returns the token of slot i's generation gen.
func token(i int32, gen uint32) OpToken { return OpToken(gen)<<32 | OpToken(uint32(i)) }

// Location answers the paper's pimQueryLocation: which compute resource
// runs an operation and which DRAM banks hold its input/output data.
type Location struct {
	// OnProgrammable is true when the op was offloaded to a programmable
	// PIM processor (identified by Processor); otherwise it runs on the
	// fixed-function units of Banks.
	OnProgrammable bool
	Processor      int
	// Banks lists the bank slices holding the op's data (and, for
	// fixed-function execution, its compute units).
	Banks []int
}

// NewRegisters builds the register file for a stack with the given
// number of banks and programmable processors.
func NewRegisters(banks, processors int) *Registers {
	return &Registers{
		bankBusy: make([]int, banks),
		progBusy: make([]int, processors),
	}
}

// Offload registers an operation at a location and returns its token
// (the paper's pimOffload). It marks the target hardware busy.
func (r *Registers) Offload(loc Location) (OpToken, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if loc.OnProgrammable {
		if loc.Processor < 0 || loc.Processor >= len(r.progBusy) {
			return 0, fmt.Errorf("pim: no programmable processor %d", loc.Processor)
		}
		r.progBusy[loc.Processor]++
	} else {
		for _, b := range loc.Banks {
			if b < 0 || b >= len(r.bankBusy) {
				return 0, fmt.Errorf("pim: no bank %d", b)
			}
			r.bankBusy[b]++
		}
	}
	var i int32
	if n := len(r.free); n > 0 {
		i = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		r.slots = append(r.slots, regSlot{})
		i = int32(len(r.slots) - 1)
	}
	s := &r.slots[i]
	s.loc, s.live = loc, true
	s.gen++
	return token(i, s.gen), nil
}

// lookup resolves tok to its slot and whether tok is still in flight
// there; a token never issued is an error.
func (r *Registers) lookup(tok OpToken) (*regSlot, bool, error) {
	i, gen := uint32(tok), uint32(tok>>32)
	if gen == 0 || uint64(i) >= uint64(len(r.slots)) || gen > r.slots[i].gen {
		return nil, false, fmt.Errorf("pim: unknown op token %d", tok)
	}
	s := &r.slots[i]
	return s, s.live && gen == s.gen, nil
}

// Complete marks an operation finished and frees its hardware (the
// hardware side of the programmable PIM checking completion and
// reporting to the CPU, Section III-B).
func (r *Registers) Complete(tok OpToken) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, live, err := r.lookup(tok)
	if err != nil {
		return err
	}
	if !live {
		return fmt.Errorf("pim: op token %d already completed", tok)
	}
	if s.loc.OnProgrammable {
		r.progBusy[s.loc.Processor]--
	} else {
		for _, b := range s.loc.Banks {
			r.bankBusy[b]--
		}
	}
	s.loc, s.live = Location{}, false
	// A slot whose generations are spent is retired instead of reused,
	// so no token is ever issued twice.
	if s.gen < math.MaxUint32 {
		r.free = append(r.free, int32(uint32(tok)))
	}
	return nil
}

// IsBankBusy answers the paper's pimIsBusy for a bank of fixed-function
// PIMs.
func (r *Registers) IsBankBusy(bank int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if bank < 0 || bank >= len(r.bankBusy) {
		return false
	}
	return r.bankBusy[bank] > 0
}

// IsProcessorBusy answers pimIsBusy for a programmable PIM processor.
func (r *Registers) IsProcessorBusy(p int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p < 0 || p >= len(r.progBusy) {
		return false
	}
	return r.progBusy[p] > 0
}

// QueryCompletion answers pimQueryCompletion: false while the op is in
// flight, true once it completed. Tokens never issued are an error.
func (r *Registers) QueryCompletion(tok OpToken) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, live, err := r.lookup(tok)
	if err != nil {
		return false, err
	}
	return !live, nil
}

// QueryLocation answers pimQueryLocation for an in-flight op; a
// completed op's register has been recycled, so its location is gone.
func (r *Registers) QueryLocation(tok OpToken) (Location, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, live, err := r.lookup(tok)
	if err != nil {
		return Location{}, err
	}
	if !live {
		return Location{}, fmt.Errorf("pim: op token %d already completed", tok)
	}
	return s.loc, nil
}

// IdleProcessor returns the index of an idle programmable processor, or
// -1 if all are busy.
func (r *Registers) IdleProcessor() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, busy := range r.progBusy {
		if busy == 0 {
			return i
		}
	}
	return -1
}

// ProgPIM models the programmable PIM complement as a set of processors;
// the simulator treats each 4-core processor as one schedulable device.
type ProgPIM struct {
	Spec hw.ProgPIMSpec

	busy         []bool
	busyTime     []float64
	lastAdvance  hw.Seconds
	totalKernels int
}

// NewProgPIM builds the programmable PIM complement.
func NewProgPIM(spec hw.ProgPIMSpec) *ProgPIM {
	return &ProgPIM{
		Spec:     spec,
		busy:     make([]bool, spec.Processors),
		busyTime: make([]float64, spec.Processors),
	}
}

// Processors returns the processor count.
func (p *ProgPIM) Processors() int { return len(p.busy) }

// Advance moves the clock, integrating per-processor busy time.
func (p *ProgPIM) Advance(now hw.Seconds) {
	dt := now - p.lastAdvance
	if dt <= 0 {
		return
	}
	for i, b := range p.busy {
		if b {
			p.busyTime[i] += dt
		}
	}
	p.lastAdvance = now
}

// Acquire reserves an idle processor and returns its index, or -1.
func (p *ProgPIM) Acquire() int {
	for i, b := range p.busy {
		if !b {
			p.busy[i] = true
			p.totalKernels++
			return i
		}
	}
	return -1
}

// Release frees processor i.
func (p *ProgPIM) Release(i int) error {
	if i < 0 || i >= len(p.busy) || !p.busy[i] {
		return fmt.Errorf("pim: release of processor %d which is not acquired", i)
	}
	p.busy[i] = false
	return nil
}

// BusySeconds returns the total busy time across processors (for energy).
func (p *ProgPIM) BusySeconds() float64 {
	var t float64
	for _, b := range p.busyTime {
		t += b
	}
	return t
}

// Kernels returns how many kernels were admitted.
func (p *ProgPIM) Kernels() int { return p.totalKernels }

// PerProcessorFlops is the FP32 throughput of a single 4-core processor.
func (p *ProgPIM) PerProcessorFlops() hw.FlopsPerSec {
	return float64(p.Spec.CoresPerProcessor) * p.Spec.Freq * p.Spec.FlopsPerCycle
}
