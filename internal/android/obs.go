package android

import (
	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/trace"
)

// sysInstruments are the framework-level instruments: frame and launch
// latency, LMK kills, freezer activity. Subsystem instruments (mm, io,
// zram, sched) register themselves on the same engine registry.
type sysInstruments struct {
	frameLatency *obs.Histogram
	frameDrops   *obs.Counter
	launchCold   *obs.Histogram
	launchHot    *obs.Histogram
	lmkKills     *obs.Counter
	freezeProcs  *obs.Counter
	thawProcs    *obs.Counter
	frozenUs     *obs.Histogram
	frozenApps   *obs.Gauge
}

func (in *sysInstruments) register(reg *obs.Registry) {
	in.frameLatency = reg.Histogram("frame.latency_us")
	in.frameDrops = reg.Counter("frame.drops")
	in.launchCold = reg.Histogram("launch.cold_us")
	in.launchHot = reg.Histogram("launch.hot_us")
	in.lmkKills = reg.Counter("lmk.kills")
	in.freezeProcs = reg.Counter("freezer.freeze.procs")
	in.thawProcs = reg.Counter("freezer.thaw.procs")
	in.frozenUs = reg.Histogram("freezer.frozen_us")
	in.frozenApps = reg.Gauge("freezer.frozen_apps")
}

// FrozenAppCount reports how many distinct applications currently have at
// least one frozen process.
func (sys *System) FrozenAppCount() int {
	uids := map[int]bool{}
	for _, p := range sys.Procs.All() {
		if p.Frozen() {
			uids[p.UID] = true
		}
	}
	return len(uids)
}

// TraceSubjects maps trace subjects to display names for the Perfetto
// export: PIDs to process names and app UIDs to application names. The
// two ID spaces never collide (PIDs grow from 2, app UIDs from 10000).
func (sys *System) TraceSubjects() map[int]string {
	names := map[int]string{}
	for _, p := range sys.Procs.All() {
		names[p.PID] = p.Name
	}
	for _, in := range sys.AM.Apps() {
		names[in.UID] = in.Spec.Name
	}
	return names
}

// CounterSamplePeriod paces the trace counter tracks (Sam, reclaim rate,
// frozen apps, runqueue depth).
const CounterSamplePeriod = 200 * sim.Millisecond

// startCounterSampler emits periodic counter samples into the trace
// buffer. It only reads simulation state — the reclaim rate through
// PeekThrashRate, since ThrashRate moves the meter's bucket grid — so
// enabling it cannot perturb the simulated outcome. Its own events do
// count in the engine's Dispatched total.
func (sys *System) startCounterSampler() {
	runq := sys.Eng.Obs().Gauge("sched.runqueue.depth")
	sys.Eng.Every(CounterSamplePeriod, func() bool {
		now := sys.Eng.Now()
		sys.Trace.Count(now, trace.CatMM, "Sam", int64(sys.MM.AvailablePages()))
		sys.Trace.Count(now, trace.CatMM, "reclaim-rate", int64(sys.MM.PeekThrashRate()))
		sys.Trace.Count(now, trace.CatFreezer, "frozen-apps", int64(sys.FrozenAppCount()))
		sys.Trace.Count(now, trace.CatSched, "runqueue", runq.Value())
		return true
	})
}
