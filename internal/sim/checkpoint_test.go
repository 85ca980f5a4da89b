package sim

import (
	"reflect"
	"sync"
	"testing"
)

// cpHandler records every dispatched typed event with its time.
type cpHandler struct {
	eng  *Engine
	log  []cpEntry
	feed int
}

type cpEntry struct {
	kind EventKind
	ref  int32
	at   float64
}

func (h *cpHandler) HandleEvent(ev Ev) {
	h.log = append(h.log, cpEntry{kind: ev.Kind, ref: ev.Ref, at: h.eng.Now()})
	// A little feedback scheduling so the suffix depends on engine state
	// (sequence tie-breaks, relative delays), not just the initial queue.
	if ev.Kind == 1 && h.feed < 5 {
		h.feed++
		if err := h.eng.AfterEv(0.5, Ev{Kind: 2, Ref: ev.Ref + 100}); err != nil {
			panic(err)
		}
		if err := h.eng.AfterEv(0.5, Ev{Kind: 2, Ref: ev.Ref + 200}); err != nil {
			panic(err)
		}
	}
}

// seedEngine schedules a deterministic batch of typed events, including
// same-time ties.
func seedEngine(t *testing.T, e *Engine, h *cpHandler) {
	t.Helper()
	e.SetHandler(h)
	h.eng = e
	for i := 0; i < 8; i++ {
		at := float64(i%3) + 0.25
		if err := e.AtEv(at, Ev{Kind: 1, Ref: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Ties at t=1.0 exercise sequence-order preservation.
	for i := 0; i < 4; i++ {
		if err := e.AtEv(1.0, Ev{Kind: 3, Ref: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckpointRestoreBitIdentical(t *testing.T) {
	// Reference: run uninterrupted.
	ref := New()
	refH := &cpHandler{}
	seedEngine(t, ref, refH)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	for stop := uint64(0); stop <= ref.Processed(); stop++ {
		src := New()
		srcH := &cpHandler{}
		seedEngine(t, src, srcH)
		if err := src.RunUntil(stop); err != nil {
			t.Fatal(err)
		}
		cp := src.Checkpoint()
		if cp.Processed() != src.Processed() || cp.Now() != src.Now() || cp.Pending() != src.Pending() {
			t.Fatalf("stop=%d: checkpoint accessors disagree with engine", stop)
		}
		dst := New()
		dstH := &cpHandler{log: append([]cpEntry(nil), srcH.log...), feed: srcH.feed}
		dst.SetHandler(dstH)
		dstH.eng = dst
		if err := dst.Restore(cp); err != nil {
			t.Fatal(err)
		}
		if err := dst.Run(); err != nil {
			t.Fatal(err)
		}
		if dst.Processed() != ref.Processed() || dst.Now() != ref.Now() {
			t.Fatalf("stop=%d: resumed run ended at (%d, %.9g), want (%d, %.9g)",
				stop, dst.Processed(), dst.Now(), ref.Processed(), ref.Now())
		}
		if !reflect.DeepEqual(dstH.log, refH.log) {
			t.Fatalf("stop=%d: resumed event log diverges from the uninterrupted run", stop)
		}
	}
}

func TestRestoreNeedsFreshEngine(t *testing.T) {
	src := New()
	h := &cpHandler{}
	seedEngine(t, src, h)
	cp := src.Checkpoint()
	dirty := New()
	dirtyH := &cpHandler{}
	seedEngine(t, dirty, dirtyH)
	if err := dirty.Run(); err != nil {
		t.Fatal(err)
	}
	if err := dirty.Restore(cp); err == nil {
		t.Fatal("expected refusal: engine not fresh")
	}
	fresh := New()
	if err := fresh.Restore(cp); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointConcurrentRestores(t *testing.T) {
	src := New()
	h := &cpHandler{}
	seedEngine(t, src, h)
	if err := src.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	cp := src.Checkpoint()

	var wg sync.WaitGroup
	logs := make([][]cpEntry, 4)
	for i := range logs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := New()
			eh := &cpHandler{feed: h.feed}
			e.SetHandler(eh)
			eh.eng = e
			if err := e.Restore(cp); err != nil {
				panic(err)
			}
			if err := e.Run(); err != nil {
				panic(err)
			}
			logs[i] = eh.log
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(logs); i++ {
		if !reflect.DeepEqual(logs[i], logs[0]) {
			t.Fatalf("concurrent restore %d diverged", i)
		}
	}
	if len(logs[0]) == 0 {
		t.Fatal("restored runs executed no events")
	}
}
