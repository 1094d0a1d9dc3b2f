package des

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// TestRunUntilNoEvents pins the documented edge case: RunUntil advances
// the clock to the deadline even when it never fired an event.
func TestRunUntilNoEvents(t *testing.T) {
	var e Engine
	e.RunUntil(42)
	if e.Now() != 42 {
		t.Errorf("clock = %v after RunUntil on empty queue, want 42", e.Now())
	}
	if e.Processed() != 0 {
		t.Errorf("processed = %d, want 0", e.Processed())
	}
	// A deadline in the past must not rewind the clock.
	e.RunUntil(10)
	if e.Now() != 42 {
		t.Errorf("clock = %v after past deadline, want 42", e.Now())
	}
}

// TestRunUntilDeadlineBeyondEvents: the clock lands on the deadline,
// not the last event, when the deadline lies past the final event.
func TestRunUntilDeadlineBeyondEvents(t *testing.T) {
	var e Engine
	fired := 0
	mustSchedule(t, &e, 3, func() { fired++ })
	e.RunUntil(7)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if e.Now() != 7 {
		t.Errorf("clock = %v, want 7 (deadline, not last event)", e.Now())
	}
}

// TestAtExactlyNow: scheduling at the current instant is legal — only
// the strict past is rejected — and the event fires at that instant.
func TestAtExactlyNow(t *testing.T) {
	var e Engine
	fired := false
	mustSchedule(t, &e, 5, func() {
		if err := e.At(e.Now(), func() { fired = true }); err != nil {
			t.Errorf("At(now) rejected: %v", err)
		}
	})
	e.Run()
	if !fired {
		t.Error("event scheduled at the current instant never fired")
	}
	if e.Now() != 5 {
		t.Errorf("clock = %v, want 5", e.Now())
	}
}

// TestAtRejectsNaN: a NaN time compares false against every clock value,
// so it must be rejected outright rather than slip past the "not in the
// past" check and break the heap's (at, seq) order. Both engines, and the
// sharded engine's cross-shard send, share the rule.
func TestAtRejectsNaN(t *testing.T) {
	nan := math.NaN()
	noop := func() {}
	var e Engine
	if err := e.At(nan, noop); err == nil {
		t.Error("Engine.At(NaN) accepted")
	}
	if err := e.Schedule(nan, noop); err == nil {
		t.Error("Engine.Schedule(NaN) accepted")
	}
	if e.Pending() != 0 {
		t.Errorf("Engine holds %d events after rejected NaN schedules", e.Pending())
	}
	se, err := NewSharded(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh := se.Shard(0)
	if err := sh.At(nan, noop); err == nil {
		t.Error("Shard.At(NaN) accepted")
	}
	if err := sh.Schedule(nan, noop); err == nil {
		t.Error("Shard.Schedule(NaN) accepted")
	}
	if err := sh.ScheduleTo(1, nan, noop); err == nil {
		t.Error("Shard.ScheduleTo(NaN) accepted")
	}
	if sh.Pending() != 0 {
		t.Errorf("Shard holds %d events after rejected NaN schedules", sh.Pending())
	}
}

// popOrder schedules one event per entry of ats (in slice order, so seq
// follows index) and returns the indices in firing order.
func popOrder(ats []float64) ([]int, bool) {
	var e Engine
	var order []int
	for i, at := range ats {
		i := i
		if err := e.At(at, func() { order = append(order, i) }); err != nil {
			return nil, false
		}
	}
	e.Run()
	return order, true
}

// referenceOrder is the specified firing order: stable sort by time,
// scheduling order within the same instant.
func referenceOrder(ats []float64) []int {
	ref := make([]int, len(ats))
	for i := range ref {
		ref[i] = i
	}
	sort.SliceStable(ref, func(a, b int) bool { return ats[ref[a]] < ats[ref[b]] })
	return ref
}

func ordersEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuickHeapPopOrder property: for any multiset of times, the
// hand-rolled heap pops events in exact (at, seq) order — the order a
// stable sort of the schedule produces.
func TestQuickHeapPopOrder(t *testing.T) {
	f := func(raw []uint8) bool {
		// Map to a small value range so duplicate instants are common
		// and the seq tie-breaker is actually exercised.
		ats := make([]float64, len(raw))
		for i, r := range raw {
			ats[i] = float64(r % 17)
		}
		got, ok := popOrder(ats)
		return ok && ordersEqual(got, referenceOrder(ats))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzHeapPopOrder fuzzes the same invariant with arbitrary byte input:
// each byte becomes one event time, and the engine's firing order must
// match the stable-sorted reference exactly.
func FuzzHeapPopOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{5, 5, 5, 5})
	f.Add([]byte{9, 3, 9, 1, 3, 0, 255, 128, 9})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, raw []byte) {
		ats := make([]float64, len(raw))
		for i, r := range raw {
			ats[i] = float64(r % 13)
		}
		got, ok := popOrder(ats)
		if !ok {
			t.Fatal("scheduling failed for non-negative times")
		}
		want := referenceOrder(ats)
		if !ordersEqual(got, want) {
			t.Errorf("pop order %v != stable-sorted reference %v for times %v", got, want, ats)
		}
	})
}
