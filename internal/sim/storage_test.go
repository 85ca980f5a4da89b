package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"heteropim/internal/hw"
)

// pointerField returns the path of the first pointer-bearing field in
// typ ("" when there is none): anything the GC must scan or a store
// must pass a write barrier for.
func pointerField(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.String:
		return path + " (" + typ.Kind().String() + ")"
	case reflect.Array:
		return pointerField(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerField(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestEventStorageHoldsNoPointers keeps the event path pointer-free and
// small: a pointer in the event or in the heap entry would put GC write
// barriers back on every sift, and every byte an entry grows is copied
// on every level of every sift. An event is 8 bytes and rides inside
// its 24-byte heap key.
func TestEventStorageHoldsNoPointers(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(Ev{}), reflect.TypeOf(eventHeap(nil)).Elem()} {
		if p := pointerField(typ, typ.Name()); p != "" {
			t.Errorf("%v holds a pointer at %s", typ, p)
		}
	}
	if n := unsafe.Sizeof(Ev{}); n != 8 {
		t.Errorf("Ev is %d bytes, want 8", n)
	}
	if n := reflect.TypeOf(eventHeap(nil)).Elem().Size(); n != 24 {
		t.Errorf("a heap entry is %d bytes, want 24", n)
	}
}

// TestEventOrderRandomized interleaves AtEv calls, most of them on a few
// shared timestamps, with single-event RunUntil steps. Every dispatched
// event must be the (time, seq) minimum of a reference queue and carry
// exactly the Kind and Ref it was scheduled with, before and after a
// Checkpoint/Restore midway.
func TestEventOrderRandomized(t *testing.T) {
	type sched struct {
		at  hw.Seconds
		seq int
		ev  Ev
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		e, h := newLogged()
		var ref []sched
		scheduled := 0
		restoreAt := 20 + rng.Intn(60)
		for step := 0; step < 200 || e.Pending() > 0; step++ {
			if step < 200 {
				for k := rng.Intn(4); k > 0; k-- {
					scheduled++
					ev := Ev{Kind: EventKind(1 + rng.Intn(8)), Ref: int32(scheduled)}
					at := e.Now() + 0.25*float64(rng.Intn(3))
					if err := e.AtEv(at, ev); err != nil {
						t.Fatal(err)
					}
					ref = append(ref, sched{at: at, seq: scheduled, ev: ev})
				}
			}
			if step == restoreAt {
				cp := e.Checkpoint()
				if cp.Pending() != len(ref) {
					t.Fatalf("trial %d: checkpoint holds %d events, want %d", trial, cp.Pending(), len(ref))
				}
				e, h = newLogged()
				if err := e.Restore(cp); err != nil {
					t.Fatal(err)
				}
			}
			if e.Pending() != len(ref) {
				t.Fatalf("trial %d step %d: %d events pending, want %d", trial, step, e.Pending(), len(ref))
			}
			if len(ref) == 0 {
				continue
			}
			if err := e.RunUntil(e.Processed() + 1); err != nil {
				t.Fatal(err)
			}
			sort.Slice(ref, func(i, j int) bool {
				if ref[i].at != ref[j].at {
					return ref[i].at < ref[j].at
				}
				return ref[i].seq < ref[j].seq
			})
			want := ref[0]
			ref = ref[1:]
			got, at := h.got[len(h.got)-1], h.at[len(h.at)-1]
			if got != want.ev || at != want.at {
				t.Fatalf("trial %d step %d: dispatched %+v at %g, want %+v at %g",
					trial, step, got, at, want.ev, want.at)
			}
		}
		if len(ref) != 0 {
			t.Fatalf("trial %d: %d scheduled events never ran", trial, len(ref))
		}
	}
}
