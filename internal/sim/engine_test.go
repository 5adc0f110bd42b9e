package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("new engine at %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine has %d pending events", e.Pending())
	}
}

func TestEngineEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Drain(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran in order %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock at %v after drain, want 30", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Drain(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEnginePastEventPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {})
	e.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestEngineAfterNegativeClamped(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.After(-5, func() { ran = true })
	e.Step()
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved to %v", e.Now())
	}
}

func TestEngineRunUntilStopsExactly(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	for _, ts := range []Time{5, 10, 15, 20} {
		ts := ts
		e.At(ts, func() { ran = append(ran, ts) })
	}
	e.RunUntil(12)
	if len(ran) != 2 {
		t.Fatalf("ran %v, want events at 5 and 10 only", ran)
	}
	if e.Now() != 12 {
		t.Fatalf("clock at %v, want 12", e.Now())
	}
	e.RunUntil(20)
	if len(ran) != 4 {
		t.Fatalf("ran %v after second RunUntil", ran)
	}
}

func TestEngineEveryRepeatsUntilFalse(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Every(10, func() bool {
		n++
		return n < 5
	})
	e.RunUntil(1000)
	if n != 5 {
		t.Fatalf("Every ran %d times, want 5", n)
	}
	if e.Pending() != 0 {
		t.Fatal("Every left a pending event after stopping")
	}
}

func TestEngineEveryZeroPeriodPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	e.Every(0, func() bool { return false })
}

func TestEngineDrainBudgetPanics(t *testing.T) {
	e := NewEngine(1)
	var loop func()
	loop = func() { e.After(1, loop) }
	e.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway loop did not trip the Drain budget")
		}
	}()
	e.Drain(100)
}

func TestEngineDispatchedCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.After(Time(i), func() {})
	}
	e.Drain(100)
	if e.Dispatched() != 7 {
		t.Fatalf("Dispatched = %d, want 7", e.Dispatched())
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := NewEngine(42)
		rng := e.Rand()
		var out []uint64
		e.Every(Millisecond, func() bool {
			out = append(out, rng.Uint64())
			return len(out) < 50
		})
		e.RunUntil(Second)
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("determinism broken at %d: %d != %d", i, a[i], b[i])
		}
	}
}

// Property: RunUntil never moves the clock backwards and never beyond the
// target.
func TestEngineClockMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		for _, d := range delays {
			e.After(Time(d), func() {})
		}
		var last Time
		for e.Pending() > 0 {
			target := last + 100
			e.RunUntil(target)
			if e.Now() < last || e.Now() > target {
				return false
			}
			last = e.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500µs"},
		{2 * Millisecond, "2.000ms"},
		{1500 * Millisecond, "1.500s"},
		{Minute, "60.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Error("FromSeconds(1.5) wrong")
	}
	if FromMillis(2.5) != 2500*Microsecond {
		t.Error("FromMillis(2.5) wrong")
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Error("Seconds() wrong")
	}
	if (3 * Millisecond).Millis() != 3.0 {
		t.Error("Millis() wrong")
	}
}

func TestEngineQuietOutsideRunUntil(t *testing.T) {
	e := NewEngine(1)
	e.At(5, func() {})
	if q := e.Quiet(); q >= e.Now() {
		t.Fatalf("Quiet() = %v outside RunUntil, want below Now %v", q, e.Now())
	}
	var inStep, inNestedStep Time
	e.At(7, func() { inStep = e.Quiet() - e.Now() })
	e.Drain(10)
	if inStep >= 0 {
		t.Fatalf("Quiet() under Drain is %v past Now, want below Now", inStep)
	}
	// Step called from inside a RunUntil callback hides the horizon too.
	e.At(20, func() { e.Step() })
	e.At(21, func() { inNestedStep = e.Quiet() - e.Now() })
	e.RunUntil(100)
	if inNestedStep >= 0 {
		t.Fatalf("Quiet() under a nested Step is %v past Now, want below Now", inNestedStep)
	}
	if q := e.Quiet(); q >= e.Now() {
		t.Fatalf("Quiet() = %v after RunUntil returned, want below Now %v", q, e.Now())
	}
}

func TestEngineQuietInsideRunUntil(t *testing.T) {
	e := NewEngine(1)
	var alone, blocked, nested, restored Time
	e.At(10, func() { alone = e.Quiet() })
	e.RunUntil(100)
	if alone != 100 {
		t.Fatalf("Quiet() with nothing pending = %v, want the horizon 100", alone)
	}

	// A pending event at T blocks the shortcut at T itself: an event
	// pushed for T would carry the higher seq and dispatch after it.
	e.At(110, func() { blocked = e.Quiet() })
	e.At(150, func() {})
	e.RunUntil(200)
	if blocked != 149 {
		t.Fatalf("Quiet() with an event pending at 150 = %v, want 149", blocked)
	}

	// Nested RunUntil calls see their own horizon and restore the outer.
	e.At(210, func() {
		e.At(220, func() { nested = e.Quiet() })
		e.RunUntil(230)
		restored = e.Quiet()
	})
	e.RunUntil(300)
	if nested != 230 || restored != 300 {
		t.Fatalf("nested Quiet() = %v, restored %v; want 230 and 300", nested, restored)
	}
}

// An event at exactly the horizon runs inside RunUntil, so a caller may
// advance to the horizon itself.
func TestEngineAdvanceToHorizon(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.At(10, func() {
		if q := e.Quiet(); q != 50 {
			t.Fatalf("Quiet() = %v, want 50", q)
		}
		e.Advance(50, 1)
	})
	e.At(50+1, func() { ran = true })
	e.RunUntil(50)
	if e.Now() != 50 || ran {
		t.Fatalf("Now %v (ran=%v) after advancing to the horizon, want 50 and the later event pending", e.Now(), ran)
	}
	e.At(61, func() {})
	e.At(60, func() {
		defer func() {
			if recover() == nil {
				t.Error("Advance past the earliest pending event did not panic")
			}
		}()
		e.Advance(61, 1)
	})
	e.RunUntil(100)
}

// Advance(t, n) must leave the engine exactly as n self-scheduled events
// dispatched back to back through the heap would: same clock, same
// Dispatched count, and the same seq for every later event.
func TestEngineAdvanceMatchesPushing(t *testing.T) {
	const n = 5
	run := func(advance bool) (Time, uint64, uint64, []int) {
		e := NewEngine(1)
		var order []int
		e.At(100, func() { order = append(order, 100) })
		var chain func()
		left := n
		chain = func() {
			if left == 0 {
				return
			}
			if advance {
				e.Advance(e.Now()+Time(left)*10, uint64(left))
				left = 0
				return
			}
			left--
			e.At(e.Now()+10, chain)
		}
		e.At(20, chain)
		e.At(90, func() {
			// Two events for the same instant must keep their relative
			// order whatever the seq offset.
			e.At(95, func() { order = append(order, 1) })
			e.At(95, func() { order = append(order, 2) })
		})
		e.RunUntil(200)
		return e.Now(), e.Dispatched(), e.seq, order
	}
	nowP, dispP, seqP, orderP := run(false)
	nowA, dispA, seqA, orderA := run(true)
	if nowP != nowA || dispP != dispA || seqP != seqA {
		t.Fatalf("pushed: now %v dispatched %d seq %d; advanced: now %v dispatched %d seq %d",
			nowP, dispP, seqP, nowA, dispA, seqA)
	}
	if len(orderA) != 3 || orderA[0] != 1 || orderA[1] != 2 || orderA[2] != 100 || len(orderP) != 3 {
		t.Fatalf("dispatch order %v (pushed %v)", orderA, orderP)
	}
}

// BenchmarkEventHeap measures one pop plus one push on a heap held at a
// steady depth, the event loop's per-event queue cost.
func BenchmarkEventHeap(b *testing.B) {
	const depth = 256
	var h eventHeap
	rng := NewRand(1)
	noop := func() {}
	var seq uint64
	for i := 0; i < depth; i++ {
		seq++
		h.push(event{when: Time(rng.Intn(10000)), seq: seq, fn: noop})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.pop()
		seq++
		h.push(event{when: ev.when + Time(1+rng.Intn(10000)), seq: seq, fn: noop})
	}
}
