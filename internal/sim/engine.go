package sim

import (
	"fmt"

	"github.com/eurosys23/ice/internal/obs"
)

// event is a scheduled callback. Events at equal times dispatch in
// scheduling order (seq), which keeps the simulation deterministic.
type event struct {
	when Time
	seq  uint64
	fn   func()
}

// eventHeap is a hand-rolled binary min-heap ordered by (when, seq).
// container/heap would box every event through interface{} on Push/Pop —
// one allocation per scheduled event, which profiling showed as ~40 % of
// all allocations on the headline benchmarks — so the sift operations are
// written out against the concrete slice instead.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

// push inserts e, sifting it up to its heap position.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the callback so the GC can collect it
	q = q[:n]
	*h = q
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && q.less(right, left) {
			child = right
		}
		if !q.less(child, i) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return top
}

// Engine is the discrete-event simulation core. It owns the virtual clock,
// the pending-event heap and the root PRNG. An Engine is not safe for
// concurrent use: the whole simulation is single-threaded by design so that
// results are reproducible.
type Engine struct {
	now  Time
	heap eventHeap
	seq  uint64
	rng  *Rand
	obs  *obs.Registry

	dispatched uint64
	// horizon is the bound of the innermost RunUntil in progress; running
	// reports whether one is. Quiet reads both.
	horizon Time
	running bool
}

// NewEngine returns an engine at time zero with a PRNG seeded by seed and
// a fresh instrument registry.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: NewRand(seed), obs: obs.NewRegistry()}
}

// Obs returns the engine's instrument registry. Every subsystem attached
// to this engine registers its named counters, gauges and histograms
// here, so one snapshot covers the whole simulated device.
func (e *Engine) Obs() *obs.Registry { return e.obs }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's root PRNG. Components that need their own stream
// should call Rand().Split() once at construction.
func (e *Engine) Rand() *Rand { return e.rng }

// Dispatched reports how many events have run so far; useful for tests and
// for sanity-checking experiment cost.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a modelling bug.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", t, e.now))
	}
	e.seq++
	e.heap.push(event{when: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d from now. Negative d is clamped to zero.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Every schedules fn to run now+d, now+2d, ... until fn returns false.
func (e *Engine) Every(d Time, fn func() bool) {
	if d <= 0 {
		panic("sim: Every with non-positive period")
	}
	var tick func()
	tick = func() {
		if fn() {
			e.After(d, tick)
		}
	}
	e.After(d, tick)
}

// Step dispatches the next pending event, advancing the clock to its time.
// It reports whether an event was dispatched. Callbacks run by Step see
// no RunUntil horizon (Quiet is below Now), even when Step is called from
// inside a RunUntil callback.
func (e *Engine) Step() bool {
	running := e.running
	e.running = false
	ok := e.step()
	e.running = running
	return ok
}

func (e *Engine) step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := e.heap.pop()
	e.now = ev.when
	e.dispatched++
	ev.fn()
	return true
}

// RunUntil dispatches events until the clock reaches t (events scheduled
// exactly at t still run). Pending events beyond t remain queued and the
// clock lands exactly on t. Nested calls (from inside a callback) save and
// restore the enclosing horizon.
func (e *Engine) RunUntil(t Time) {
	defer func(horizon Time, running bool) { e.horizon, e.running = horizon, running }(e.horizon, e.running)
	e.horizon, e.running = t, true
	for len(e.heap) > 0 && e.heap[0].when <= t {
		e.step()
	}
	if e.now < t {
		e.now = t
	}
}

// Quiet returns the last time through which an event scheduled now would
// be the next one dispatched: the earlier of the RunUntil horizon and one
// microsecond before the earliest pending event. An event pushed for any
// time in [Now, Quiet()] is strictly earlier than everything queued, so
// it pops first; at the earliest pending time it would carry the highest
// seq and lose the tie, hence the minus one. Outside RunUntil (under Step
// or Drain) it is below Now, so no caller may run ahead of the event loop
// there.
func (e *Engine) Quiet() Time {
	if !e.running {
		return e.now - 1
	}
	q := e.horizon
	if len(e.heap) > 0 && e.heap[0].when-1 < q {
		q = e.heap[0].when - 1
	}
	return q
}

// Advance stands in for n events the caller would otherwise have
// scheduled in [Now, t] and dispatched back to back: it moves the clock
// to t and counts the n events in both Dispatched and the scheduling
// sequence, so every later event keeps exactly the seq (and therefore
// the tie order) it would have had. t must lie in [Now, Quiet()]; the
// caller does the n events' work itself.
func (e *Engine) Advance(t Time, n uint64) {
	if t < e.now || t > e.Quiet() {
		panic(fmt.Sprintf("sim: Advance to %v outside [now %v, quiet %v]", t, e.now, e.Quiet()))
	}
	e.now = t
	e.dispatched += n
	e.seq += n
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// Drain runs every pending event. It panics after maxEvents dispatches as a
// guard against runaway self-rescheduling loops.
func (e *Engine) Drain(maxEvents uint64) {
	start := e.dispatched
	for e.Step() {
		if e.dispatched-start > maxEvents {
			panic("sim: Drain exceeded event budget")
		}
	}
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.heap) }
