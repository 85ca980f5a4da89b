package pim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"heteropim/internal/hmc"
	"heteropim/internal/hw"
)

func paperStack(t testing.TB) *hmc.Stack {
	t.Helper()
	s, err := hmc.New(hw.PaperStack(1))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestThermalPlacementTotals(t *testing.T) {
	s := paperStack(t)
	for _, total := range []int{0, 1, 31, 32, 444, 1000} {
		p, err := ThermalPlacement(s, total)
		if err != nil {
			t.Fatalf("total %d: %v", total, err)
		}
		if got := p.Total(); got != total {
			t.Errorf("total %d: placement sums to %d", total, got)
		}
	}
	if _, err := ThermalPlacement(s, -1); err == nil {
		t.Error("negative budget: want error")
	}
}

func TestThermalPlacementFavorsCornersAndEdges(t *testing.T) {
	s := paperStack(t)
	p, err := ThermalPlacement(s, hw.PaperFixedUnits)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(s); err != nil {
		t.Fatal(err)
	}
	// Aggregate per class: per-bank average must be strictly ordered.
	sum := map[hmc.BankClass]float64{}
	cnt := map[hmc.BankClass]float64{}
	for i, u := range p.Units {
		c := s.ClassOf(i)
		sum[c] += float64(u)
		cnt[c]++
	}
	corner := sum[hmc.Corner] / cnt[hmc.Corner]
	edge := sum[hmc.Edge] / cnt[hmc.Edge]
	center := sum[hmc.Center] / cnt[hmc.Center]
	if !(corner > edge && edge > center) {
		t.Fatalf("thermal ordering violated: corner=%.2f edge=%.2f center=%.2f", corner, edge, center)
	}
}

func TestUniformPlacement(t *testing.T) {
	s := paperStack(t)
	p, err := UniformPlacement(s, 444)
	if err != nil {
		t.Fatal(err)
	}
	if p.Total() != 444 {
		t.Fatalf("uniform placement sums to %d", p.Total())
	}
	min, max := p.Units[0], p.Units[0]
	for _, u := range p.Units {
		if u < min {
			min = u
		}
		if u > max {
			max = u
		}
	}
	if max-min > 1 {
		t.Fatalf("uniform placement spread %d..%d", min, max)
	}
	if _, err := UniformPlacement(s, -3); err == nil {
		t.Error("negative budget: want error")
	}
}

func TestPlacementTotalQuick(t *testing.T) {
	s := paperStack(t)
	f := func(n uint16) bool {
		total := int(n % 2048)
		pt, err1 := ThermalPlacement(s, total)
		pu, err2 := UniformPlacement(s, total)
		return err1 == nil && err2 == nil && pt.Total() == total && pu.Total() == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementVerifyCatchesBadPlacements(t *testing.T) {
	s := paperStack(t)
	p, _ := ThermalPlacement(s, 444)
	bad := Placement{Units: p.Units[:10]}
	if err := bad.Verify(s); err == nil {
		t.Error("short placement: want error")
	}
	inverted := Placement{Units: make([]int, s.Banks())}
	for i := range inverted.Units {
		if s.ClassOf(i) == hmc.Center {
			inverted.Units[i] = 20
		} else {
			inverted.Units[i] = 1
		}
	}
	if err := inverted.Verify(s); err == nil {
		t.Error("inverted thermal placement: want error")
	}
	neg := Placement{Units: make([]int, s.Banks())}
	neg.Units[0] = -1
	if err := neg.Verify(s); err == nil {
		t.Error("negative units: want error")
	}
}

func TestPlacementPeakFlops(t *testing.T) {
	s := paperStack(t)
	p, _ := ThermalPlacement(s, 444)
	spec := hw.PaperFixedPIM(444)
	got := p.PeakFlops(spec, hw.PaperStack(1))
	want := 444 * 2 * 312.5e6
	if math.Abs(got-want) > 1 {
		t.Fatalf("peak = %g, want %g", got, want)
	}
	if got4 := p.PeakFlops(spec, hw.PaperStack(4)); math.Abs(got4-4*want) > 1 {
		t.Fatalf("4x peak = %g, want %g", got4, 4*want)
	}
}

func TestPoolGrantRelease(t *testing.T) {
	s := paperStack(t)
	pl, _ := ThermalPlacement(s, 100)
	pool := NewPool(hw.PaperFixedPIM(100), pl)
	if pool.Total() != 100 || pool.Available() != 100 {
		t.Fatal("fresh pool must be fully available")
	}
	if got := pool.Grant(60); got != 60 {
		t.Fatalf("grant = %d, want 60", got)
	}
	if got := pool.Grant(60); got != 40 {
		t.Fatalf("over-grant = %d, want 40 (clamped)", got)
	}
	if got := pool.Grant(5); got != 0 {
		t.Fatalf("empty pool grant = %d, want 0", got)
	}
	if pool.Grants() != 2 {
		t.Fatalf("grants = %d, want 2 (zero grants don't count)", pool.Grants())
	}
	if err := pool.Release(100); err != nil {
		t.Fatal(err)
	}
	if err := pool.Release(1); err == nil {
		t.Fatal("releasing more than busy must error")
	}
	if pool.Grant(0) != 0 || pool.Grant(-5) != 0 {
		t.Fatal("non-positive grant wants must return 0")
	}
}

func TestPoolUtilizationIntegral(t *testing.T) {
	s := paperStack(t)
	pl, _ := ThermalPlacement(s, 100)
	pool := NewPool(hw.PaperFixedPIM(100), pl)
	pool.Grant(50)
	pool.Advance(1.0) // 50 busy units for 1s
	if err := pool.Release(50); err != nil {
		t.Fatal(err)
	}
	pool.Advance(2.0) // 0 busy for 1s
	if got := pool.Utilization(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("utilization = %g, want 0.25", got)
	}
	if got := pool.BusyUnitSeconds(); math.Abs(got-50) > 1e-12 {
		t.Fatalf("busy unit-seconds = %g, want 50", got)
	}
	pool.Advance(1.5) // going backwards is a no-op
	if pool.Now() != 2.0 {
		t.Fatalf("clock moved backwards to %g", pool.Now())
	}
}

func TestPoolUtilizationEmpty(t *testing.T) {
	pool := NewPool(hw.PaperFixedPIM(10), Placement{Units: []int{10}})
	if pool.Utilization() != 0 {
		t.Fatal("utilization before any time passes must be 0")
	}
}

func TestRegistersLifecycle(t *testing.T) {
	r := NewRegisters(32, 2)
	tok, err := r.Offload(Location{Banks: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsBankBusy(0) || !r.IsBankBusy(1) || r.IsBankBusy(2) {
		t.Fatal("bank busy bits wrong after offload")
	}
	done, err := r.QueryCompletion(tok)
	if err != nil || done {
		t.Fatalf("completion before Complete: %v %v", done, err)
	}
	loc, err := r.QueryLocation(tok)
	if err != nil || loc.OnProgrammable || len(loc.Banks) != 2 {
		t.Fatalf("location = %+v, %v", loc, err)
	}
	if err := r.Complete(tok); err != nil {
		t.Fatal(err)
	}
	if r.IsBankBusy(0) || r.IsBankBusy(1) {
		t.Fatal("banks still busy after completion")
	}
	if done, _ := r.QueryCompletion(tok); !done {
		t.Fatal("op not marked complete")
	}
	if err := r.Complete(tok); err == nil {
		t.Fatal("double completion must error")
	}
}

func TestRegistersProgrammable(t *testing.T) {
	r := NewRegisters(32, 2)
	if r.IdleProcessor() != 0 {
		t.Fatal("fresh registers: processor 0 should be idle")
	}
	tok, err := r.Offload(Location{OnProgrammable: true, Processor: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsProcessorBusy(0) || r.IsProcessorBusy(1) {
		t.Fatal("processor busy bits wrong")
	}
	if r.IdleProcessor() != 1 {
		t.Fatal("processor 1 should be the idle one")
	}
	if err := r.Complete(tok); err != nil {
		t.Fatal(err)
	}
	if r.IsProcessorBusy(0) {
		t.Fatal("processor 0 still busy after completion")
	}
}

func TestRegistersErrors(t *testing.T) {
	r := NewRegisters(4, 1)
	if _, err := r.Offload(Location{Banks: []int{7}}); err == nil {
		t.Error("offload to missing bank: want error")
	}
	if _, err := r.Offload(Location{OnProgrammable: true, Processor: 3}); err == nil {
		t.Error("offload to missing processor: want error")
	}
	if err := r.Complete(99); err == nil {
		t.Error("completing unknown token: want error")
	}
	if _, err := r.QueryCompletion(99); err == nil {
		t.Error("querying unknown token: want error")
	}
	if _, err := r.QueryLocation(99); err == nil {
		t.Error("locating unknown token: want error")
	}
	if r.IsBankBusy(-1) || r.IsProcessorBusy(-1) {
		t.Error("out-of-range queries must read idle")
	}
}

func TestProgPIMAcquireRelease(t *testing.T) {
	p := NewProgPIM(hw.PaperProgPIM(2))
	i := p.Acquire()
	j := p.Acquire()
	if i == j || i < 0 || j < 0 {
		t.Fatalf("acquired %d,%d", i, j)
	}
	if p.Acquire() != -1 {
		t.Fatal("third acquire should fail")
	}
	p.Advance(2.0)
	if got := p.BusySeconds(); math.Abs(got-4.0) > 1e-12 {
		t.Fatalf("busy seconds = %g, want 4", got)
	}
	if err := p.Release(i); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(i); err == nil {
		t.Fatal("double release must error")
	}
	if err := p.Release(99); err == nil {
		t.Fatal("bogus release must error")
	}
	p.Advance(3.0)
	if got := p.BusySeconds(); math.Abs(got-5.0) > 1e-12 {
		t.Fatalf("busy seconds = %g, want 5", got)
	}
	if p.Kernels() != 2 {
		t.Fatalf("kernels = %d, want 2", p.Kernels())
	}
}

func TestProgPIMPerProcessorFlops(t *testing.T) {
	p := NewProgPIM(hw.PaperProgPIM(1))
	want := 4 * 2e9 * 2.0
	if got := p.PerProcessorFlops(); math.Abs(got-want) > 1 {
		t.Fatalf("per-processor flops = %g, want %g", got, want)
	}
}

// tokenState reads what the register file says about tok: "live",
// "completed" or "unknown", checking that QueryCompletion,
// QueryLocation and a trial Complete agree. The trial Complete runs on
// a fork, so r is left as it was.
func tokenState(t *testing.T, r *Registers, tok OpToken) string {
	t.Helper()
	done, qerr := r.QueryCompletion(tok)
	_, lerr := r.QueryLocation(tok)
	cerr := r.Snapshot().NewRegisters().Complete(tok)
	switch {
	case qerr == nil && !done:
		if lerr != nil || cerr != nil {
			t.Fatalf("token %d in flight, but QueryLocation says %v and Complete %v", tok, lerr, cerr)
		}
		return "live"
	case qerr == nil && done:
		for _, err := range []error{lerr, cerr} {
			if err == nil || !strings.Contains(err.Error(), "already completed") {
				t.Fatalf("completed token %d: got error %v, want \"already completed\"", tok, err)
			}
		}
		return "completed"
	default:
		for _, err := range []error{qerr, lerr, cerr} {
			if err == nil || !strings.Contains(err.Error(), "unknown op token") {
				t.Fatalf("token %d: got error %v, want \"unknown op token\"", tok, err)
			}
		}
		return "unknown"
	}
}

// TestRegistersTokenStates covers the slot-addressed tokens: a
// completed token reads completed, never unknown; a token never issued
// reads unknown, whatever its slot and generation bits; and a recycled
// slot never revives the token that held it before.
func TestRegistersTokenStates(t *testing.T) {
	r := NewRegisters(8, 2)
	for _, tok := range []OpToken{0, 1, 99, token(0, 1)} {
		if got := tokenState(t, r, tok); got != "unknown" {
			t.Errorf("fresh file: token %d reads %s, want unknown", tok, got)
		}
	}
	a, err := r.Offload(Location{Banks: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Offload(Location{OnProgrammable: true, Processor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Complete(a); err != nil {
		t.Fatal(err)
	}
	// a's slot is reused by c, at the next generation.
	c, err := r.Offload(Location{Banks: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatalf("recycled slot reissued token %d", a)
	}
	if uint32(c) != uint32(a) {
		t.Fatalf("token %d did not reuse the slot of completed token %d", c, a)
	}
	for tok, want := range map[OpToken]string{
		a: "completed", b: "live", c: "live",
		0: "unknown", c + 1<<32: "unknown", token(2, 1): "unknown", token(1, 2): "unknown",
	} {
		if got := tokenState(t, r, tok); got != want {
			t.Errorf("token %d reads %s, want %s", tok, got, want)
		}
	}
	if loc, _ := r.QueryLocation(c); len(loc.Banks) != 1 || loc.Banks[0] != 2 {
		t.Errorf("recycled slot locates token %d at %+v, want bank 2", c, loc)
	}
	if r.IsBankBusy(0) || !r.IsBankBusy(2) || !r.IsProcessorBusy(1) {
		t.Error("busy bits wrong after a recycled offload")
	}
	if err := r.Complete(a); err == nil || !strings.Contains(err.Error(), "already completed") {
		t.Errorf("completing %d twice: %v, want \"already completed\"", a, err)
	}
	if !r.IsBankBusy(2) {
		t.Error("a stale Complete released the slot's new operation")
	}
}

// TestRegistersStorageBounded runs 10^5 offload/complete cycles with up
// to four operations in flight: the register file keeps one slot per
// operation in flight at once, not one per operation ever offloaded,
// and every token stays unique.
func TestRegistersStorageBounded(t *testing.T) {
	const cycles, window = 100000, 4
	r := NewRegisters(4, 1)
	seen := make(map[OpToken]bool, cycles)
	var open []OpToken
	for i := 0; i < cycles; i++ {
		tok, err := r.Offload(Location{Banks: []int{i % 4}})
		if err != nil {
			t.Fatal(err)
		}
		if seen[tok] {
			t.Fatalf("cycle %d: token %d issued twice", i, tok)
		}
		seen[tok] = true
		open = append(open, tok)
		if len(open) == window {
			// Complete out of issue order, so slots recycle shuffled.
			j := i % window
			if err := r.Complete(open[j]); err != nil {
				t.Fatal(err)
			}
			open = append(open[:j], open[j+1:]...)
		}
	}
	if len(r.slots) != window {
		t.Errorf("%d slots after %d cycles, want %d (the most in flight at once)", len(r.slots), cycles, window)
	}
	if len(r.free)+len(open) != len(r.slots) {
		t.Errorf("%d free + %d open slots, want %d", len(r.free), len(open), len(r.slots))
	}
	for _, tok := range open {
		if err := r.Complete(tok); err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < 4; b++ {
		if r.IsBankBusy(b) {
			t.Errorf("bank %d busy after every operation completed", b)
		}
	}
}

// TestRegistersSnapshotRoundTrip checks that a fork of a snapshot
// answers every token as the source does (in flight, completed,
// recycled, never issued), issues the same next tokens, and shares no
// storage with the source.
func TestRegistersSnapshotRoundTrip(t *testing.T) {
	r := NewRegisters(8, 2)
	banks := []int{3, 4}
	var toks []OpToken
	for i := 0; i < 5; i++ {
		loc := Location{Banks: banks}
		if i%2 == 1 {
			loc = Location{OnProgrammable: true, Processor: i % 2}
		}
		tok, err := r.Offload(loc)
		if err != nil {
			t.Fatal(err)
		}
		toks = append(toks, tok)
	}
	for _, i := range []int{1, 3, 0} {
		if err := r.Complete(toks[i]); err != nil {
			t.Fatal(err)
		}
	}
	recycled, err := r.Offload(Location{Banks: []int{5}})
	if err != nil {
		t.Fatal(err)
	}
	toks = append(toks, recycled, 0, 99, recycled+1<<32, token(9, 1))
	snap := r.Snapshot()
	if snap.InFlight() != 3 {
		t.Fatalf("snapshot holds %d operations in flight, want 3", snap.InFlight())
	}
	fork := snap.NewRegisters()
	for _, tok := range toks {
		if got, want := tokenState(t, fork, tok), tokenState(t, r, tok); got != want {
			t.Errorf("token %d: fork reads %s, source %s", tok, got, want)
		}
	}
	for i := 0; i < 4; i++ {
		a, aerr := r.Offload(Location{Banks: []int{i}})
		b, berr := fork.Offload(Location{Banks: []int{i}})
		if a != b || aerr != nil || berr != nil {
			t.Fatalf("next offload %d: source issued %d (%v), fork %d (%v)", i, a, aerr, b, berr)
		}
	}
	// The fork owns its bank lists: completing in the fork and editing
	// the source's slice leave each other alone.
	banks[0] = 7
	if loc, err := fork.QueryLocation(toks[2]); err != nil || loc.Banks[0] != 3 {
		t.Errorf("fork location %+v (%v) follows the source's bank slice", loc, err)
	}
	if err := fork.Complete(toks[2]); err != nil {
		t.Fatal(err)
	}
	if got := tokenState(t, r, toks[2]); got != "live" {
		t.Errorf("completing in the fork left the source's token %s", got)
	}
}
