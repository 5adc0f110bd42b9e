package proc

import "github.com/eurosys23/ice/internal/sim"

// Execute runs the task for up to budget CPU time starting at now, working
// through its queue. It returns the CPU consumed and, if a work item's
// memory phase blocked on I/O, the absolute time the task must sleep until
// (zero otherwise). The scheduler arranges the wake-up.
func (t *Task) Execute(now sim.Time, budget sim.Time) (used sim.Time, blockedUntil sim.Time) {
	for used < budget {
		w := t.Current()
		if w == nil {
			break
		}
		if !w.setupDone {
			w.setupDone = true
			if w.Setup != nil {
				stall, blockUntil := w.Setup()
				// Synchronous stalls (fault handling, decompression, lock
				// waits, direct reclaim) burn the task's CPU time.
				w.remaining += stall
				if blockUntil > now+used {
					t.Block()
					t.CPUTime += used
					return used, blockUntil
				}
			}
		}
		run := w.remaining
		if run > budget-used {
			run = budget - used
		}
		w.remaining -= run
		used += run
		if w.remaining <= 0 {
			t.FinishCurrent()
			if w.OnDone != nil {
				w.OnDone(w.posted, now+used)
			}
		}
	}
	t.CPUTime += used
	return used, 0
}

// PureQuanta reports how many consecutive quanta of budget t can run with
// no effect beyond accounting: its current item has already run Setup and
// keeps more than budget of work after each of them, so no Setup, OnDone,
// Block or queue pop fires. It is zero when t has no current item or is
// blocked, or when the next quantum starts or finishes an item.
func (t *Task) PureQuanta(budget sim.Time) int64 {
	w := t.cur
	if w == nil || !w.setupDone || t.blocked || budget <= 0 || w.remaining <= budget {
		return 0
	}
	return int64((w.remaining - 1) / budget)
}

// RunPure applies k quanta of budget that PureQuanta vouched for, exactly
// as k Execute calls would: each consumes the full budget.
func (t *Task) RunPure(k int64, budget sim.Time) {
	if k > t.PureQuanta(budget) {
		panic("proc: RunPure beyond the task's pure quanta")
	}
	run := sim.Time(k) * budget
	t.cur.remaining -= run
	t.CPUTime += run
}
