package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %v, want 3", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie at index %d broke scheduling order: got %d", i, v)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var at Time
	s.At(10, func() {
		s.After(5, func() { at = s.Now() })
	})
	s.Run()
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestNestedSchedulingDuringRun(t *testing.T) {
	s := New()
	depth := 0
	var grow func()
	grow = func() {
		if depth < 50 {
			depth++
			s.After(1, grow)
		}
	}
	s.At(0, grow)
	s.Run()
	if depth != 50 {
		t.Fatalf("depth = %d, want 50", depth)
	}
	if s.Now() != 50 {
		t.Fatalf("clock = %v, want 50", s.Now())
	}
}

// TestSchedulingInPastPanics pins the past-scheduling guard for both
// the closure (At) and record (AtCall) entry points on both
// calendars: a t < now schedule would execute after later-scheduled
// events, silently corrupting causality, so — like the
// schedule-after-Stop guard — the kernel names the misuse instead.
// The panic text is part of the contract.
func TestSchedulingInPastPanics(t *testing.T) {
	for _, c := range []Calendar{Ladder, Heap} {
		t.Run(c.String(), func(t *testing.T) {
			s := NewWithCalendar(c)
			ran := false
			s.At(10, func() {
				ran = true
				mustPanicWith(t, "sim: scheduling into the past: t=5 is before now=10",
					func() { s.At(5, func() {}) })
				mustPanicWith(t, "sim: scheduling into the past: t=9.5 is before now=10",
					func() { s.AtCall(9.5, func(any) {}, nil) })
				// The boundary is inclusive: scheduling at exactly now
				// is legal and fires after pending same-instant events.
				s.AtCall(10, func(any) {}, nil)
			})
			s.Run()
			if !ran {
				t.Fatal("driver event never ran")
			}
			if s.Fired() != 2 {
				t.Fatalf("fired %d events, want 2 (the at-now schedule must fire)", s.Fired())
			}
		})
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	New().After(-1, func() {})
}

func TestNilActionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil action did not panic")
		}
	}()
	New().At(1, nil)
}

func TestNaNTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NaN time did not panic")
		}
	}()
	New().At(math.NaN(), func() {})
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	s := New()
	fired := []Time{}
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	if err := s.RunUntil(3); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %v, want 3", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
}

func TestRunUntilReportsStall(t *testing.T) {
	s := New()
	s.At(1, func() {})
	if err := s.RunUntil(100); err != ErrStalled {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	if New().Step() {
		t.Error("Step on empty calendar returned true")
	}
}

func TestFiredCounts(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.Fired() != 10 {
		t.Fatalf("Fired = %d, want 10", s.Fired())
	}
}

// mustPanicWith runs f and asserts it panics with exactly msg — the
// kernel's misuse panics are part of its contract, so the text is
// pinned, not just the fact of panicking.
func mustPanicWith(t *testing.T, msg string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("no panic, want %q", msg)
			return
		}
		if got, ok := r.(string); !ok || got != msg {
			t.Errorf("panic = %v, want %q", r, msg)
		}
	}()
	f()
}

func TestEmptyPopPanicsDescriptively(t *testing.T) {
	var q eventQueue
	mustPanicWith(t, "sim: pop from empty calendar", func() { q.pop() })
	mustPanicWith(t, "sim: peek at empty calendar", func() { q.peek() })
}

func TestScheduleAfterStopPanics(t *testing.T) {
	s := New()
	s.At(1, func() {})
	s.At(2, func() { t.Error("event fired after Stop") })
	s.At(1, s.Stop)
	s.Run()
	if !s.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want the post-stop event retained", s.Pending())
	}
	mustPanicWith(t, "sim: schedule after Stop", func() { s.At(3, func() {}) })
	mustPanicWith(t, "sim: schedule after Stop", func() { s.AtCall(3, runClosure, Action(func() {})) })
}

func TestStopHaltsRunUntil(t *testing.T) {
	s := New()
	fired := 0
	s.At(1, func() { fired++; s.Stop() })
	s.At(2, func() { fired++ })
	if err := s.RunUntil(10); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Now() != 1 {
		t.Fatalf("clock = %v, want 1 (not advanced to horizon after Stop)", s.Now())
	}
}

// TestAtCallRecordsFireInOrder exercises the allocation-free record
// path: prebuilt (Func, arg) pairs fire with the right argument, in
// (due, seq) order, interleaved with closure events.
func TestAtCallRecordsFireInOrder(t *testing.T) {
	s := New()
	var order []int
	record := func(arg any) { order = append(order, arg.(int)) }
	s.AtCall(2, record, 2)
	s.At(1, func() { order = append(order, 1) })
	s.AtCall(2, record, 3) // same instant: scheduling order wins
	s.AfterCall(4, record, 4)
	s.Run()
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestNilFuncPanics(t *testing.T) {
	mustPanicWith(t, "sim: nil event function scheduled", func() { New().AtCall(1, nil, nil) })
}

// TestScheduleIsAllocationFree pins the kernel contract the network
// hot path relies on: scheduling a prebuilt record costs zero
// allocations once the calendar's backing storage is warm — for the
// ladder that means the arena and tier slices have reached their
// high-water marks, for the heap its backing array.
func TestScheduleIsAllocationFree(t *testing.T) {
	for _, c := range []Calendar{Ladder, Heap} {
		t.Run(c.String(), func(t *testing.T) {
			s := NewWithCalendar(c)
			noop := func(any) {}
			// Warm the calendar capacity.
			for i := 0; i < 64; i++ {
				s.AtCall(1, noop, nil)
			}
			s.Run()
			avg := testing.AllocsPerRun(100, func() {
				for i := 0; i < 32; i++ {
					s.AtCall(s.Now()+1, noop, s)
				}
				for s.Step() {
				}
			})
			if avg != 0 {
				t.Errorf("AtCall allocates %v per 32-event batch, want 0", avg)
			}
		})
	}
}

// TestHeapProperty feeds random times through the queue and verifies
// events always pop in nondecreasing time order.
func TestHeapProperty(t *testing.T) {
	f := func(times []uint16) bool {
		s := New()
		for _, v := range times {
			s.At(Time(v), func() {})
		}
		last := Time(-1)
		ok := true
		for s.Pending() > 0 {
			s.Step()
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
