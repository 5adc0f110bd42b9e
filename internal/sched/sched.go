// Package sched is a simplified CFS (completely fair scheduler) over N
// identical cores. Runnable tasks are picked by minimum weighted virtual
// runtime each 1 ms quantum. The scheduler is demand-driven: it only ticks
// while work exists, and must be kicked when tasks become runnable.
//
// The baseline evaluated in the paper is "LRU+CFS"; UCSG's user-centric
// scheduling is expressed by boosting the weights of foreground tasks (see
// internal/policy).
package sched

import (
	"math"

	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/proc"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/trace"
)

// Quantum is the scheduling tick length.
const Quantum = sim.Millisecond

// CPUClass buckets CPU consumption for the utilisation analyses
// (Table 1, §6.2.2).
type CPUClass int

// CPU consumption classes.
const (
	CPUKernel CPUClass = iota
	CPUService
	CPUForegroundApp
	CPUBackgroundApp
	numCPUClasses
)

// Stats aggregates scheduler activity since the last reset.
type Stats struct {
	// Busy is CPU time consumed per class.
	Busy [numCPUClasses]sim.Time
	// Window is the wall time covered.
	Window sim.Time
	// Cores is the core count, for utilisation computation.
	Cores int
	// BusyPerSecond is the per-second total busy time, for peak
	// utilisation.
	BusyPerSecond []sim.Time
}

// TotalBusy sums across classes.
func (s Stats) TotalBusy() sim.Time {
	var t sim.Time
	for _, b := range s.Busy {
		t += b
	}
	return t
}

// Utilization returns average CPU utilisation in [0,1].
func (s Stats) Utilization() float64 {
	if s.Window <= 0 || s.Cores == 0 {
		return 0
	}
	return float64(s.TotalBusy()) / (float64(s.Window) * float64(s.Cores))
}

// PeakUtilization returns the highest single-second utilisation. The last
// (possibly partial) second is normalised by its actual length.
func (s Stats) PeakUtilization() float64 {
	if s.Cores == 0 {
		return 0
	}
	var peak float64
	for i, b := range s.BusyPerSecond {
		span := s.Window - sim.Time(i)*sim.Second
		if span > sim.Second {
			span = sim.Second
		}
		if span <= 0 {
			break
		}
		u := float64(b) / (float64(span) * float64(s.Cores))
		if u > peak {
			peak = u
		}
	}
	return peak
}

// Scheduler multiplexes tasks over cores.
type Scheduler struct {
	eng    *sim.Engine
	cores  int
	fgUID  int
	weight func(*proc.Task) int
	speed  func(*proc.Task) float64
	// speedDefault short-circuits the per-task speed call while no speed
	// policy is installed (the common case outside UCSG).
	speedDefault bool

	tasks []*proc.Task

	// runq is a superset of the runnable tasks: every task that might be
	// runnable is on it (flagged via Task.InRunq), and tick filters it with
	// Task.Runnable. Tasks found non-runnable are dropped and re-added by
	// the event that could make them runnable again — Post for new work,
	// the unblock callback for I/O completion, WakeAll for thaws (the one
	// runnability transition the scheduler cannot observe directly). The
	// superset invariant makes the per-tick filter produce exactly the set
	// a full task-list scan would, at O(candidates) instead of O(tasks).
	runq []*proc.Task

	tickArmed   bool
	nextAllowed sim.Time
	minV        int64
	// compactAt is the task-list length that triggers the next dead-task
	// compaction from Register.
	compactAt int

	busy       [numCPUClasses]sim.Time
	busyPerSec []sim.Time
	started    sim.Time

	// scratch avoids per-tick allocation.
	scratch []*proc.Task
	// shares holds each runnable task's per-quantum charge while batch
	// sizes and applies a run of pure quanta; batch runs only with at
	// most cores runnable tasks, so its capacity of cores never grows.
	shares []share
	// inTick marks that a scheduling round is executing; Posts arriving
	// from OnDone/Setup callbacks are recorded in posted so the end-of-round
	// re-arm check can consider exactly the tasks that may have become
	// runnable mid-round instead of re-scanning the whole task list.
	inTick bool
	posted []*proc.Task
	// tickFn is the bound tick method, captured once so re-arming the
	// tick does not allocate a fresh method value per event.
	tickFn func()
	// unblockFns holds one prebuilt unblock-and-kick callback per
	// registered task, so I/O completions never allocate a closure.
	unblockFns map[*proc.Task]func()

	quanta   [numCPUClasses]*obs.Counter
	runqueue *obs.Gauge
	tr       *trace.Buffer
}

// New creates a scheduler with the given core count.
func New(eng *sim.Engine, cores int) *Scheduler {
	if cores <= 0 {
		panic("sched: non-positive core count")
	}
	s := &Scheduler{eng: eng, cores: cores, fgUID: -1, shares: make([]share, 0, cores)}
	s.weight = func(t *proc.Task) int { return t.Weight }
	s.speed = func(*proc.Task) float64 { return 1 }
	s.speedDefault = true
	s.tickFn = s.tick
	s.unblockFns = make(map[*proc.Task]func())
	s.compactAt = 64
	reg := eng.Obs()
	s.quanta[CPUKernel] = reg.Counter("sched.quanta.kernel")
	s.quanta[CPUService] = reg.Counter("sched.quanta.service")
	s.quanta[CPUForegroundApp] = reg.Counter("sched.quanta.fg_app")
	s.quanta[CPUBackgroundApp] = reg.Counter("sched.quanta.bg_app")
	s.runqueue = reg.Gauge("sched.runqueue.depth")
	return s
}

// SetTrace attaches a trace buffer; the scheduler emits one CatSched span
// per executed quantum into it. A nil buffer is valid.
func (s *Scheduler) SetTrace(b *trace.Buffer) { s.tr = b }

// SetSpeedFn installs a per-task execution-speed policy in (0, ~1.5]: a
// task at speed 0.4 occupies a core for a full quantum but completes only
// 40 % of a quantum's work — how core placement and frequency capping
// (e.g. UCSG pinning background tasks to slow cores) are modelled. nil
// restores uniform speed 1.
func (s *Scheduler) SetSpeedFn(fn func(*proc.Task) float64) {
	s.speedDefault = fn == nil
	if fn == nil {
		fn = func(*proc.Task) float64 { return 1 }
	}
	s.speed = fn
}

// Cores returns the core count.
func (s *Scheduler) Cores() int { return s.cores }

// Register adds a task to the scheduler's purview. Tasks are never removed;
// dead processes simply stop being runnable.
func (s *Scheduler) Register(t *proc.Task) {
	// Dead tasks normally compact out of s.tasks when tick meets one on
	// the candidate queue — but a task killed while off the queue (frozen
	// or idle) is never seen there, so launch loops would grow the list
	// and the unblock-callback table without bound. Compacting whenever
	// registrations double the list keeps both O(live); the trigger
	// depends only on the registration sequence, so it cannot perturb
	// event order.
	if len(s.tasks) >= s.compactAt {
		live := s.tasks[:0]
		for _, old := range s.tasks {
			if !old.Proc.Alive() {
				delete(s.unblockFns, old)
				continue
			}
			live = append(live, old)
		}
		for i := len(live); i < len(s.tasks); i++ {
			s.tasks[i] = nil
		}
		s.tasks = live
		s.compactAt = 2*len(live) + 64
	}
	s.tasks = append(s.tasks, t)
	s.enqueue(t)
	if _, ok := s.unblockFns[t]; !ok {
		s.unblockFns[t] = func() {
			t.Unblock()
			s.enqueue(t)
			s.Kick()
		}
	}
}

// enqueue puts t on the runnable-candidate queue (idempotent).
func (s *Scheduler) enqueue(t *proc.Task) {
	if t.InRunq {
		return
	}
	t.InRunq = true
	s.runq = append(s.runq, t)
}

// WakeAll re-enqueues every live task as a runnable candidate and kicks the
// scheduler. Callers use it after runnability changed outside the
// scheduler's sight — thawing frozen processes is the one such transition.
func (s *Scheduler) WakeAll() {
	for _, t := range s.tasks {
		if t.Proc.Alive() {
			s.enqueue(t)
		}
	}
	s.Kick()
}

// SetForegroundUID tells the scheduler which UID is foreground, for CPU
// accounting (and for weight policies that consult it).
func (s *Scheduler) SetForegroundUID(uid int) { s.fgUID = uid }

// SetWeightFn installs an effective-weight policy (UCSG). nil restores the
// default (the task's own weight).
func (s *Scheduler) SetWeightFn(fn func(*proc.Task) int) {
	if fn == nil {
		fn = func(t *proc.Task) int { return t.Weight }
	}
	s.weight = fn
}

// ResetStats zeroes CPU accounting.
func (s *Scheduler) ResetStats() {
	s.busy = [numCPUClasses]sim.Time{}
	s.busyPerSec = s.busyPerSec[:0]
	s.started = s.eng.Now()
}

// Stats returns a snapshot of the accumulated CPU accounting.
func (s *Scheduler) Stats() Stats {
	st := Stats{
		Busy:   s.busy,
		Window: s.eng.Now() - s.started,
		Cores:  s.cores,
	}
	st.BusyPerSecond = append(st.BusyPerSecond, s.busyPerSec...)
	return st
}

// Kick ensures a scheduling tick is pending. Posting and unblocking call
// it automatically; after thawing processes use WakeAll instead, which
// both re-enqueues the thawed tasks and kicks.
func (s *Scheduler) Kick() {
	if s.tickArmed {
		return
	}
	s.tickArmed = true
	s.eng.After(0, s.tickFn)
}

// Post enqueues work on t and kicks the scheduler. This is the preferred
// way for the framework and application models to submit work.
func (s *Scheduler) Post(t *proc.Task, w *proc.Work) bool {
	ok := t.Post(s.eng.Now(), w)
	if ok {
		s.enqueue(t)
		if s.inTick {
			s.posted = append(s.posted, t)
		}
		s.Kick()
	}
	return ok
}

// quantumName maps a CPU class to the static span label used for
// CatSched trace events (Event.Name must not be built per call).
var quantumName = [numCPUClasses]string{
	CPUKernel:        "quantum-kernel",
	CPUService:       "quantum-service",
	CPUForegroundApp: "quantum-fg",
	CPUBackgroundApp: "quantum-bg",
}

func (s *Scheduler) classify(t *proc.Task) CPUClass {
	switch t.Proc.Kind {
	case proc.KindKernel:
		return CPUKernel
	case proc.KindService:
		return CPUService
	default:
		if t.Proc.UID == s.fgUID {
			return CPUForegroundApp
		}
		return CPUBackgroundApp
	}
}

func (s *Scheduler) noteBusy(class CPUClass, used sim.Time) {
	s.busy[class] += used
	sec := s.second(s.eng.Now())
	s.busyPerSec[sec] += used
}

// second returns the BusyPerSecond index of a quantum starting at t,
// growing the slice to hold it. Rounds never run before the last
// ResetStats, so the index is never negative.
func (s *Scheduler) second(t sim.Time) int {
	sec := int((t - s.started) / sim.Second)
	for len(s.busyPerSec) <= sec {
		s.busyPerSec = append(s.busyPerSec, 0)
	}
	return sec
}

// wakeupBonus places freshly runnable tasks slightly ahead of the pack,
// approximating CFS's sleeper fairness.
const wakeupBonus = int64(3 * sim.Millisecond)

// share is what one quantum charges a task whose work item neither starts
// nor finishes in it: the full work budget is consumed, occupying the core
// for coreTime and advancing the task's virtual runtime by dv.
type share struct {
	budget, coreTime sim.Time
	dv               int64
	class            CPUClass
}

// speedOf returns t's execution speed under the installed policy.
func (s *Scheduler) speedOf(t *proc.Task) float64 {
	if s.speedDefault {
		return 1
	}
	speed := s.speed(t)
	if speed <= 0 {
		speed = 1
	}
	return speed
}

// budgetAt is the work a task at speed completes in one quantum.
func budgetAt(speed float64) sim.Time {
	if speed == 1 {
		// The common uniform-speed case stays in integer arithmetic.
		return Quantum
	}
	b := sim.Time(float64(Quantum) * speed)
	if b < 1 {
		b = 1
	}
	return b
}

// charge returns the core time and the virtual-runtime increment for t
// having done used work at speed. Core occupancy is the work done divided
// by the speed: a slow task burns full quanta to make partial progress.
func (s *Scheduler) charge(t *proc.Task, speed float64, used sim.Time) (coreTime sim.Time, dv int64) {
	coreTime = used
	if speed != 1 {
		coreTime = sim.Time(float64(used) / speed)
	}
	if coreTime > Quantum {
		coreTime = Quantum
	}
	w := s.weight(t)
	if w <= 0 {
		w = proc.DefaultWeight
	}
	if w == proc.DefaultWeight {
		return coreTime, int64(coreTime)
	}
	return coreTime, int64(coreTime) * proc.DefaultWeight / int64(w)
}

// tick runs scheduling rounds, one per quantum. While the next round
// would be the very next event the engine dispatches (nextAllowed ≤
// Quiet), it runs it in place and counts the event it would have been
// with Advance, instead of pushing and popping its own re-arm event; the
// dispatch order, the clock and every event's seq are unchanged. When
// another event comes first, or the RunUntil horizon ends, it re-arms
// through the engine as usual.
func (s *Scheduler) tick() {
	now := s.eng.Now()

	// At most one execution round per quantum: work posted mid-round (e.g.
	// by an OnDone callback) must wait for the next boundary, otherwise a
	// single instant could dispense unbounded CPU. tickArmed stays true
	// throughout: Kicks issued while executing must not enqueue duplicate
	// tick events.
	if now < s.nextAllowed {
		s.eng.At(s.nextAllowed, s.tickFn)
		return
	}
	for s.round(now) {
		if s.tr == nil && len(s.scratch) <= s.cores && len(s.runq) == len(s.scratch) {
			s.batch()
		}
		now = s.nextAllowed
		if now > s.eng.Quiet() {
			s.eng.At(now, s.tickFn)
			return
		}
		s.eng.Advance(now, 1)
	}
	s.tickArmed = false
}

// round runs one scheduling round at now: pick up to cores runnable tasks
// by minimum virtual runtime and give each a quantum. It reports whether
// anything is still runnable, leaving this round's runnable set in
// s.scratch.
func (s *Scheduler) round(now sim.Time) bool {
	s.nextAllowed = now + Quantum

	// One pass filters the candidate queue down to the runnable set.
	// Candidates found non-runnable leave the queue — whatever event could
	// make them runnable again re-enqueues them (see the runq field).
	// Seeing a dead task triggers a (rare) compaction of the full task
	// list: killed applications relaunch with fresh processes and tasks,
	// so a dead task can never become runnable again, and scan-heavy
	// scenarios (launch loops, per-process reclaim studies) would
	// otherwise grow the list without bound.
	runnable := s.scratch[:0]
	keep := s.runq[:0]
	dead := 0
	for _, t := range s.runq {
		if !t.Proc.Alive() {
			t.InRunq = false
			dead++
			continue
		}
		if t.Runnable(now) {
			keep = append(keep, t)
			runnable = append(runnable, t)
		} else {
			t.InRunq = false
		}
	}
	for i := len(keep); i < len(s.runq); i++ {
		s.runq[i] = nil
	}
	s.runq = keep
	if dead > 0 {
		live := s.tasks[:0]
		for _, t := range s.tasks {
			if !t.Proc.Alive() {
				delete(s.unblockFns, t)
				continue
			}
			live = append(live, t)
		}
		for i := len(live); i < len(s.tasks); i++ {
			s.tasks[i] = nil
		}
		s.tasks = live
	}
	s.scratch = runnable
	s.runqueue.Set(int64(len(runnable)))

	if len(runnable) == 0 {
		return false
	}
	s.inTick = true

	// Normalise virtual runtimes so long sleepers don't monopolise cores.
	min := runnable[0].VRuntime
	for _, t := range runnable[1:] {
		if t.VRuntime < min {
			min = t.VRuntime
		}
	}
	if min > s.minV {
		s.minV = min
	}
	floor := s.minV - wakeupBonus
	for _, t := range runnable {
		if t.VRuntime < floor {
			t.VRuntime = floor
		}
	}

	// Partial selection: only the cores lowest-vruntime tasks run this
	// quantum, so selecting them in order (O(cores·n), allocation-free)
	// replaces a full reflect-driven sort. (VRuntime, TID) is a strict
	// total order — TIDs are unique — so the selected prefix is exactly
	// the prefix a full sort would produce.
	n := len(runnable)
	if n > s.cores {
		n = s.cores
	}
	for i := 0; i < n; i++ {
		min := i
		for j := i + 1; j < len(runnable); j++ {
			if runnable[j].VRuntime < runnable[min].VRuntime ||
				(runnable[j].VRuntime == runnable[min].VRuntime && runnable[j].TID < runnable[min].TID) {
				min = j
			}
		}
		runnable[i], runnable[min] = runnable[min], runnable[i]
	}
	for _, t := range runnable[:n] {
		speed := s.speedOf(t)
		used, blockedUntil := t.Execute(now, budgetAt(speed))
		if used > 0 {
			coreTime, dv := s.charge(t, speed, used)
			t.VRuntime += dv
			class := s.classify(t)
			s.noteBusy(class, coreTime)
			s.quanta[class].Inc()
			s.tr.Span(now, trace.CatSched, quantumName[class], t.Proc.PID,
				coreTime, int64(used), int64(t.Proc.UID))
		}
		if blockedUntil > 0 {
			s.eng.At(blockedUntil, s.unblockFns[t])
		}
	}

	// Re-arm while anything can still run; otherwise disarm so the next
	// Kick restarts the loop. A task is runnable here iff it was in this
	// round's runnable set and still is, or had work posted mid-round (the
	// only way a task gains runnability inside a round — unfreezes, thaw
	// expiries and I/O unblocks arrive as separate engine events, and
	// simulated time does not advance within a round). Checking those two
	// small sets is exactly equivalent to re-scanning every task.
	s.inTick = false
	rearm := false
	for _, t := range runnable {
		if t.Runnable(now) {
			rearm = true
			break
		}
	}
	if !rearm {
		for _, t := range s.posted {
			if t.Runnable(now) {
				rearm = true
				break
			}
		}
	}
	for i := range s.posted {
		s.posted[i] = nil
	}
	s.posted = s.posted[:0]
	return rearm
}

// batch runs, in closed form, the rounds after the one just completed
// that are pure: every runnable task runs in each (there are at most
// cores of them), no task's work item starts or finishes, and no other
// event comes first. tick calls it only when the round just run left
// exactly its own runnable set on the candidate queue (nothing was posted
// to a waiting task) and no trace buffer wants a span per quantum.
//
// Such rounds have no effect beyond accounting, and each charges every
// task the same share: speed, weight and class depend only on the task
// and the foreground UID, which only events change, so evaluating them
// once here is exact. Nothing can join the runnable set either — every
// runnability gain is an event or a Post, and pure rounds make neither.
//
// The vruntime floor clamp cannot fire in these rounds. The round just
// run raised every runnable task to at least minV−wakeupBonus, and
// vruntimes only grow, so each later round either keeps minV (same
// floor, already met) or raises it to the current minimum (a floor below
// every task). minV thus ends as the last batched round's minimum, if
// that is higher.
func (s *Scheduler) batch() {
	now := s.eng.Now()
	first := s.nextAllowed
	quiet := s.eng.Quiet()
	if first > quiet {
		return
	}
	k := int64((quiet-first)/Quantum) + 1
	shares := s.shares[:0]
	for _, t := range s.scratch {
		if !t.Runnable(now) {
			return
		}
		speed := s.speedOf(t)
		sh := share{budget: budgetAt(speed), class: s.classify(t)}
		if p := t.PureQuanta(sh.budget); p < k {
			if p == 0 {
				return
			}
			k = p
		}
		sh.coreTime, sh.dv = s.charge(t, speed, sh.budget)
		shares = append(shares, sh)
	}

	var perRound sim.Time
	lastMin := int64(math.MaxInt64)
	for i, t := range s.scratch {
		sh := shares[i]
		t.RunPure(k, sh.budget)
		if v := t.VRuntime + (k-1)*sh.dv; v < lastMin {
			lastMin = v
		}
		t.VRuntime += k * sh.dv
		s.busy[sh.class] += sim.Time(k) * sh.coreTime
		s.quanta[sh.class].Add(uint64(k))
		perRound += sh.coreTime
	}
	if lastMin > s.minV {
		s.minV = lastMin
	}

	// BusyPerSecond: every batched round adds perRound to the second it
	// starts in.
	last := first + sim.Time(k-1)*Quantum
	for t, left := first, k; left > 0; {
		sec := s.second(t)
		end := s.started + sim.Time(sec+1)*sim.Second
		n := int64((end - t + Quantum - 1) / Quantum)
		if n > left {
			n = left
		}
		s.busyPerSec[sec] += sim.Time(n) * perRound
		t += sim.Time(n) * Quantum
		left -= n
	}

	s.eng.Advance(last, uint64(k))
	s.nextAllowed = last + Quantum
}
