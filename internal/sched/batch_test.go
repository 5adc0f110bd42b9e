package sched

import (
	"reflect"
	"testing"

	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/proc"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/trace"
)

// batchRun is one scheduler driven through a scenario. With a trace
// buffer attached the scheduler runs every round on its own; without one
// it advances pure quanta in closed form (batch). The two must agree on
// everything the simulation can observe.
type batchRun struct {
	eng   *sim.Engine
	s     *Scheduler
	tasks []*proc.Task
	// done logs every finished work item: task index, posted, finished.
	done [][3]int64
	// hookCalls counts speed-policy calls: one per running task per
	// round, plus one per runnable task each time batch sizes a run.
	hookCalls int
}

// chainWork keeps task i busy with a cycle of item lengths: each item's
// OnDone posts the next. The lengths are deliberately not multiples of
// the quantum (nor of the UCSG-scaled budgets), so items finish part-way
// through quanta.
func (r *batchRun) chainWork(i int, lengths ...sim.Time) {
	t := r.tasks[i]
	n := 0
	var post func()
	post = func() {
		w := &proc.Work{CPU: lengths[n%len(lengths)]}
		n++
		w.OnDone = func(posted, finished sim.Time) {
			r.done = append(r.done, [3]int64{int64(i), int64(posted), int64(finished)})
			post()
		}
		r.s.Post(t, w)
	}
	post()
}

func newBatchRun(cores, tasks int, perQuantum bool) *batchRun {
	eng, s, tb := newSched(cores)
	r := &batchRun{eng: eng, s: s}
	if perQuantum {
		s.SetTrace(trace.NewBuffer(64))
	}
	for i := 0; i < tasks; i++ {
		task := appTask(tb, "t", 0)
		s.Register(task)
		r.tasks = append(r.tasks, task)
	}
	return r
}

// countSpeed installs a uniform-speed policy that counts its calls.
func (r *batchRun) countSpeed() {
	r.s.SetSpeedFn(func(*proc.Task) float64 {
		r.hookCalls++
		return 1
	})
}

// ucsg installs UCSG-style hooks: the foreground UID's tasks run at 1.1
// with an 8× weight, everyone else at 0.35 with a quarter weight.
func (r *batchRun) ucsg() {
	r.s.SetSpeedFn(func(t *proc.Task) float64 {
		r.hookCalls++
		if t.Proc.UID == r.s.fgUID {
			return 1.1
		}
		return 0.35
	})
	r.s.SetWeightFn(func(t *proc.Task) int {
		if t.Proc.UID == r.s.fgUID {
			return t.Weight * 8
		}
		return t.Weight / 4
	})
}

// batchState is everything the comparison checks.
type batchState struct {
	Now        sim.Time
	Dispatched uint64
	MinV       int64
	CPUTime    []sim.Time
	VRuntime   []int64
	QueueLen   []int
	Done       [][3]int64
	Stats      Stats
	Counters   []obs.CounterSample
}

func (r *batchRun) state() batchState {
	st := batchState{
		Now:        r.eng.Now(),
		Dispatched: r.eng.Dispatched(),
		MinV:       r.s.minV,
		Done:       r.done,
		Stats:      r.s.Stats(),
		Counters:   r.eng.Obs().Snapshot().Counters,
	}
	for _, t := range r.tasks {
		st.CPUTime = append(st.CPUTime, t.CPUTime)
		st.VRuntime = append(st.VRuntime, t.VRuntime)
		st.QueueLen = append(st.QueueLen, t.QueueLen())
	}
	return st
}

// runUntilIrregular drives the engine to end through RunUntil horizons
// that fall mid-quantum and mid-batch.
func runUntilIrregular(eng *sim.Engine, step, end sim.Time) {
	for t := eng.Now() + step; t < end; t += step {
		eng.RunUntil(t)
	}
	eng.RunUntil(end)
}

func TestBatchMatchesPerQuantum(t *testing.T) {
	long := []sim.Time{37*Quantum + 211, 9*Quantum + 17, 120 * Quantum, 3*Quantum + 999}
	cases := []struct {
		name       string
		cores      int
		tasks      int
		setup      func(r *batchRun)
		drive      func(r *batchRun)
		wantsBatch bool
	}{
		{
			name: "fewer-tasks-than-cores", cores: 4, tasks: 3, wantsBatch: true,
			setup: func(r *batchRun) {
				r.countSpeed()
				for i := range r.tasks {
					r.chainWork(i, long[i:]...)
				}
			},
			drive: func(r *batchRun) { r.eng.RunFor(2 * sim.Second) },
		},
		{
			// Exact multiples: the item's last quantum consumes the whole
			// budget, so OnDone fires at a quantum's end, not mid-way.
			name: "exact-multiples", cores: 2, tasks: 2, wantsBatch: true,
			setup: func(r *batchRun) {
				r.countSpeed()
				r.chainWork(0, 10*Quantum, 25*Quantum)
				r.chainWork(1, 7*Quantum)
			},
			drive: func(r *batchRun) { r.eng.RunFor(sim.Second) },
		},
		{
			name: "tasks-equal-cores", cores: 4, tasks: 4, wantsBatch: true,
			setup: func(r *batchRun) {
				r.countSpeed()
				for i := range r.tasks {
					r.chainWork(i, long[i:]...)
				}
			},
			drive: func(r *batchRun) { r.eng.RunFor(2 * sim.Second) },
		},
		{
			// More runnable tasks than cores never batches; the in-place
			// round loop still applies.
			name: "more-tasks-than-cores", cores: 4, tasks: 6,
			setup: func(r *batchRun) {
				r.countSpeed()
				for i := range r.tasks {
					r.chainWork(i, long[i%len(long):]...)
				}
			},
			drive: func(r *batchRun) { r.eng.RunFor(sim.Second) },
		},
		{
			// UCSG-style speeds and weights, with the foreground switching
			// between tasks mid-run (an event, as in the framework).
			name: "ucsg-speeds", cores: 4, tasks: 4, wantsBatch: true,
			setup: func(r *batchRun) {
				r.ucsg()
				r.s.SetForegroundUID(r.tasks[0].Proc.UID)
				for i := range r.tasks {
					r.chainWork(i, long[i:]...)
				}
				r.eng.At(1234567, func() { r.s.SetForegroundUID(r.tasks[2].Proc.UID) })
			},
			drive: func(r *batchRun) { r.eng.RunFor(3 * sim.Second) },
		},
		{
			// Stats restart at an instant off the quantum grid, so every
			// second boundary falls inside a batch.
			name: "second-boundaries", cores: 8, tasks: 5, wantsBatch: true,
			setup: func(r *batchRun) {
				r.countSpeed()
				for i := range r.tasks {
					r.chainWork(i, 1500*Quantum+sim.Time(i)*333)
				}
				r.eng.At(333333, r.s.ResetStats)
			},
			drive: func(r *batchRun) { r.eng.RunFor(4 * sim.Second) },
		},
		{
			// RunUntil horizons that end mid-batch.
			name: "horizon-mid-batch", cores: 4, tasks: 3, wantsBatch: true,
			setup: func(r *batchRun) {
				r.countSpeed()
				for i := range r.tasks {
					r.chainWork(i, long[i:]...)
				}
			},
			drive: func(r *batchRun) { runUntilIrregular(r.eng, 3777, 2*sim.Second) },
		},
		{
			// Work posted to an idle task by a periodic event, plus items
			// that block on I/O in Setup: rounds with enqueues and
			// blocked tasks interleave with batches.
			name: "events-and-blocking", cores: 4, tasks: 4, wantsBatch: true,
			setup: func(r *batchRun) {
				r.countSpeed()
				r.chainWork(0, long...)
				r.chainWork(1, long[1:]...)
				io := r.tasks[2]
				r.eng.Every(25*sim.Millisecond+13, func() bool {
					r.s.Post(io, &proc.Work{
						CPU: 4*Quantum + 500,
						Setup: func() (sim.Time, sim.Time) {
							return 300, r.eng.Now() + 2*sim.Millisecond
						},
					})
					return true
				})
				idle := r.tasks[3]
				r.eng.Every(41*sim.Millisecond, func() bool {
					r.s.Post(idle, &proc.Work{CPU: 2*Quantum + 1})
					return true
				})
			},
			drive: func(r *batchRun) { runUntilIrregular(r.eng, 50*sim.Millisecond+7, 3*sim.Second) },
		},
		{
			// Work finishing on one task posts work to an idle one, and
			// freezes or thaws a running one, inside a round: the round
			// after must see both changes, so no batch may start there.
			name: "mid-round-handoff", cores: 4, tasks: 4, wantsBatch: true,
			setup: func(r *batchRun) {
				r.countSpeed()
				r.chainWork(1, long...)
				r.chainWork(2, long[2:]...)
				idle, victim := r.tasks[3], r.tasks[1]
				n := 0
				var post func()
				post = func() {
					r.s.Post(r.tasks[0], &proc.Work{CPU: 6*Quantum + 400, OnDone: func(_, _ sim.Time) {
						n++
						r.s.Post(idle, &proc.Work{CPU: 11*Quantum + 3})
						if n%3 == 0 {
							victim.Proc.Freeze(r.eng.Now())
						} else if victim.Proc.Thaw(r.eng.Now(), 0) {
							r.s.WakeAll()
						}
						post()
					}})
				}
				post()
			},
			drive: func(r *batchRun) { r.eng.RunFor(2 * sim.Second) },
		},
		{
			// The default (hook-free) fast path.
			name: "no-hooks", cores: 4, tasks: 3,
			setup: func(r *batchRun) {
				for i := range r.tasks {
					r.chainWork(i, long[i:]...)
				}
			},
			drive: func(r *batchRun) { runUntilIrregular(r.eng, 10*sim.Millisecond+1, 2*sim.Second) },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			per := newBatchRun(c.cores, c.tasks, true)
			bat := newBatchRun(c.cores, c.tasks, false)
			for _, r := range []*batchRun{per, bat} {
				c.setup(r)
				c.drive(r)
			}
			want, got := per.state(), bat.state()
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("batched run diverged from per-quantum rounds:\nper-quantum %+v\nbatched     %+v", want, got)
			}
			if len(want.Done) == 0 {
				t.Fatal("no work item finished; the scenario exercises nothing")
			}
			switch {
			case c.wantsBatch && bat.hookCalls >= per.hookCalls:
				t.Fatalf("batched run made %d policy calls against %d per-quantum: batching never engaged",
					bat.hookCalls, per.hookCalls)
			case !c.wantsBatch && c.tasks > c.cores && bat.hookCalls != per.hookCalls:
				t.Fatalf("batched %d policy calls, per-quantum %d: more tasks than cores must not batch",
					bat.hookCalls, per.hookCalls)
			}
		})
	}
}
