package sched

import (
	"math"
	"testing"

	"github.com/eurosys23/ice/internal/proc"
	"github.com/eurosys23/ice/internal/sim"
)

// TestTickNoAllocs pins the steady-state scheduling round at zero
// allocations: with the candidate queue, scratch slices and the engine's
// event heap warmed up, ticking must not touch the heap at all. This is
// one of the three hot paths the PR's optimisation pass covers; a
// regression here silently costs every simulated millisecond.
func TestTickNoAllocs(t *testing.T) {
	eng, s, tb := newSched(2)
	for i := 0; i < 4; i++ {
		task := appTask(tb, "spin", 0)
		s.Register(task)
		s.Post(task, &proc.Work{CPU: sim.Hour})
	}
	// Warm-up: grow the runnable scratch, the candidate queue and the
	// event heap to their steady-state capacities.
	eng.RunFor(100 * sim.Millisecond)
	allocs := testing.AllocsPerRun(200, func() {
		eng.RunFor(Quantum)
	})
	if allocs != 0 {
		t.Fatalf("steady-state tick allocated %.1f objects per quantum, want 0", allocs)
	}
}

// TestBatchNoAllocs pins the batched path at zero allocations: with
// fewer spinning tasks than cores, each RunFor is one round plus one
// closed-form batch up to the horizon, and neither may touch the heap.
func TestBatchNoAllocs(t *testing.T) {
	eng, s, tb := newSched(8)
	calls := 0
	s.SetSpeedFn(func(*proc.Task) float64 {
		calls++
		return 1
	})
	for i := 0; i < 4; i++ {
		task := appTask(tb, "spin", 0)
		s.Register(task)
		s.Post(task, &proc.Work{CPU: sim.Hour})
	}
	eng.RunFor(100 * sim.Millisecond)
	const runs = 50
	calls = 0
	allocs := testing.AllocsPerRun(runs, func() {
		eng.RunFor(10 * Quantum)
	})
	if allocs != 0 {
		t.Fatalf("batched scheduling allocated %.1f objects per 10 quanta, want 0", allocs)
	}
	// One round and one batch per RunFor call (AllocsPerRun adds a
	// warm-up call): 8 policy calls, against 40 for per-quantum rounds.
	if perQuantum := (runs + 1) * 10 * 4; calls*4 > perQuantum {
		t.Fatalf("%d speed-policy calls over %d quanta of 4 tasks: rounds were not batched", calls, (runs+1)*10)
	}
}

// BenchmarkSchedSecond measures one simulated second of CPU-bound tasks
// on 8 cores: 4 tasks leave cores idle, so the scheduler advances them in
// closed-form batches; 12 tasks contend for the cores, so every quantum
// is a full round.
func BenchmarkSchedSecond(b *testing.B) {
	for _, n := range []int{4, 12} {
		name := "batched-4on8"
		if n > 8 {
			name = "per-quantum-12on8"
		}
		b.Run(name, func(b *testing.B) {
			eng, s, tb := newSched(8)
			for i := 0; i < n; i++ {
				task := appTask(tb, "spin", 0)
				s.Register(task)
				// Enough work to outlast any b.N.
				s.Post(task, &proc.Work{CPU: math.MaxInt64 / 2})
			}
			eng.RunFor(100 * sim.Millisecond)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.RunFor(sim.Second)
			}
		})
	}
}
