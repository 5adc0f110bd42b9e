// Package workload drives the simulated device through the paper's
// experimental procedures: the four foreground scenarios (video call,
// short-form video, scrolling, mobile game) under configurable background
// conditions, the Monkey-driven launch loop of §6.3, the multi-day user
// model of §3.1, the per-process reclaim study of §3.2, and the CPU
// utilisation study of Table 1.
package workload

import (
	"fmt"

	"github.com/eurosys23/ice/internal/android"
	"github.com/eurosys23/ice/internal/app"
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/metrics"
	"github.com/eurosys23/ice/internal/mm"
	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/sched"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/storage"
	"github.com/eurosys23/ice/internal/trace"
	"github.com/eurosys23/ice/internal/zram"
)

// BGCase selects the background condition of §2.2 (Figure 1).
type BGCase int

// Background conditions.
const (
	// BGNull: the target app runs with nothing cached behind it.
	BGNull BGCase = iota
	// BGApps: N applications are cached in the background first.
	BGApps
	// BGCputester: background CPU load (~20 %) with tiny memory footprint.
	BGCputester
	// BGMemtester: background memory occupancy with little CPU and few
	// re-accesses.
	BGMemtester
)

// String implements fmt.Stringer.
func (c BGCase) String() string {
	switch c {
	case BGNull:
		return "BG-null"
	case BGApps:
		return "BG-apps"
	case BGCputester:
		return "BG-cputester"
	case BGMemtester:
		return "BG-memtester"
	default:
		return fmt.Sprintf("BGCase(%d)", int(c))
	}
}

// DefaultBGCount returns the paper's background population for a device:
// six on the Pixel3, eight on the P20 ("to fully fill the memory").
func DefaultBGCount(dev device.Profile) int {
	if dev.RAMPages <= 4*device.PagesPerGB {
		return 6
	}
	return 8
}

// ScenarioConfig configures one scenario run.
type ScenarioConfig struct {
	// Scenario is "S-A" (video call), "S-B" (short video), "S-C"
	// (scrolling) or "S-D" (game).
	Scenario string
	Device   device.Profile
	Scheme   policy.Scheme
	BGCase   BGCase
	// NumBG overrides the cached-app count (0 = device default).
	NumBG int
	// Duration is the measured window (default 60 s).
	Duration sim.Time
	Seed     int64
	// WarmupRun, if positive, runs the scenario that long before the
	// measured window (default 2 s settle).
	Settle sim.Time
	// TraceCap, when positive, enables Systrace-like event recording with
	// the given ring capacity; the buffer is returned in the result.
	TraceCap int
}

// ScenarioResult is the outcome of one scenario run.
type ScenarioResult struct {
	// A result is plain data: it holds no policy.Scheme and nothing
	// else that reaches the simulated device, so a cell's device is
	// garbage as soon as RunScenario returns, however long the result
	// is kept. Consumers label cells from their matrix coordinates.
	// Trace never crosses the JSON wire the icesimd fleet ships cell
	// results over (its ring buffer is unexported), so the coordinator
	// keeps trace-recording cells local.
	Frames    metrics.FrameStats
	Mem       mm.Stats
	Distances mm.DistanceHistogram
	MemSeries []mm.SecondBucket
	CPU       sched.Stats
	IO        storage.Stats
	Zram      zram.Stats
	LMKKills  int
	// FrozenApps is the number of distinct applications ICE froze (0 for
	// other schemes).
	FrozenApps int
	// FGResidentStart is the FG app's resident pages when measurement
	// began, a pressure sanity signal.
	FGResidentStart int
	// RenderStall / RenderBlock decompose the frame path's memory costs.
	RenderStall sim.Time
	RenderBlock sim.Time
	// Trace holds the recorded event ring when ScenarioConfig.TraceCap was
	// set (nil otherwise).
	Trace *trace.Buffer `json:"-"`
	// Subjects maps trace subjects (PIDs, UIDs) to display names for the
	// Perfetto export. Populated only when TraceCap was set.
	Subjects map[int]string
	// Obs is the device's instrument-registry snapshot for the measured
	// window (counters reset alongside the other stats at measurement
	// start).
	Obs obs.Snapshot
}

// ObsSnapshot implements obs.SnapshotProvider, letting the harness
// surface the per-cell registry snapshot to an ExecHooks.ObsSink (the
// daemon aggregates them into its fleet-visible sim.* series).
func (r ScenarioResult) ObsSnapshot() obs.Snapshot { return r.Obs }

// launchTimeout bounds how long the driver waits for one launch sequence.
const launchTimeout = 120 * sim.Second

// waitLaunchIdle advances the simulation until no launch is in flight.
func waitLaunchIdle(sys *android.System) {
	if !sys.RunUntil(sys.AM.LaunchIdle, launchTimeout, 20*sim.Millisecond) {
		panic("workload: launch did not complete within timeout")
	}
}

// bringToForeground launches an app and waits until it is interactive.
func bringToForeground(sys *android.System, name string) {
	sys.AM.RequestForeground(name, nil)
	waitLaunchIdle(sys)
}

// CacheApps launches each named app and sends it to the background,
// leaving the device at the home screen.
func CacheApps(sys *android.System, names []string, dwell sim.Time) {
	for _, n := range names {
		bringToForeground(sys, n)
		sys.Run(dwell)
	}
	sys.AM.RequestHome()
	sys.Run(dwell)
}

// PickBGApps selects n random catalog apps, excluding the foreground app.
func PickBGApps(rng *sim.Rand, n int, exclude string) []string {
	catalog := app.Catalog()
	perm := rng.Perm(len(catalog))
	var out []string
	for _, idx := range perm {
		if len(out) == n {
			break
		}
		if catalog[idx].Name == exclude {
			continue
		}
		out = append(out, catalog[idx].Name)
	}
	return out
}

// NewScenarioSystem builds a device with the scheme attached and the
// catalog installed, plus any synthetic apps the case needs. It returns
// the system and the scenario's foreground app name.
func NewScenarioSystem(cfg ScenarioConfig) (*android.System, string) {
	fgName, ok := app.ScenarioApps[cfg.Scenario]
	if !ok {
		panic(fmt.Sprintf("workload: unknown scenario %q", cfg.Scenario))
	}
	sys := android.NewSystem(cfg.Seed, cfg.Device)
	if cfg.TraceCap > 0 {
		sys.EnableTracing(cfg.TraceCap)
	}
	if cfg.Scheme != nil {
		cfg.Scheme.Attach(sys)
	}
	sys.AM.InstallAll(app.Catalog())

	switch cfg.BGCase {
	case BGCputester:
		sys.AM.Install(app.Cputester())
	case BGMemtester:
		// Sized so that RAM plus a healthy share of ZRAM is exhausted once
		// the foreground app joins: the occupancy of the BG-apps case
		// without its re-access behaviour. Physical memory is conserved,
		// so the tester cannot exceed what RAM+ZRAM can actually hold or
		// the LMK would (correctly) kill it.
		fgSpec, _ := app.ByName(fgName)
		usable := cfg.Device.RAMPages - cfg.Device.ReservedPages
		pages := usable - fgSpec.TotalPages() - cfg.Device.HighWatermarkPages + cfg.Device.ZramPages/4
		if pages < 1024 {
			pages = 1024
		}
		sys.AM.Install(app.Memtester(pages))
	}
	return sys, fgName
}

// RunScenario executes one full scenario: cache the background condition,
// launch the target app, settle, then measure Duration of rendering.
func RunScenario(cfg ScenarioConfig) ScenarioResult {
	res, _ := runScenario(cfg)
	return res
}

// runScenario is RunScenario that also hands back the simulated device,
// for tests that inspect the engine after the run.
func runScenario(cfg ScenarioConfig) (ScenarioResult, *android.System) {
	if cfg.Duration <= 0 {
		cfg.Duration = 60 * sim.Second
	}
	if cfg.Settle <= 0 {
		cfg.Settle = 2 * sim.Second
	}
	sys, fgName := NewScenarioSystem(cfg)
	rng := sim.NewRand(cfg.Seed ^ 0x5ce0a11)

	// Establish the background condition.
	switch cfg.BGCase {
	case BGApps:
		n := cfg.NumBG
		if n == 0 {
			n = DefaultBGCount(cfg.Device)
		}
		CacheApps(sys, PickBGApps(rng, n, fgName), 500*sim.Millisecond)
	case BGCputester:
		CacheApps(sys, []string{"cputester"}, 500*sim.Millisecond)
	case BGMemtester:
		CacheApps(sys, []string{"memtester"}, 500*sim.Millisecond)
	}

	// Launch the target application and let the system settle.
	bringToForeground(sys, fgName)
	sys.Run(cfg.Settle)

	// Measure.
	renderer := android.NewRenderer(sys)
	sys.ResetMeasurement()
	fgInst := sys.AM.App(fgName)
	res := ScenarioResult{FGResidentStart: fgInst.ResidentPages()}
	renderer.Start(fgInst)
	sys.Run(cfg.Duration)
	renderer.Stop()

	res.Frames = renderer.Rec.Snapshot(sys.Eng.Now())
	res.RenderStall = renderer.DbgStall
	res.RenderBlock = renderer.DbgBlock
	res.Mem = sys.MM.Stats()
	res.Distances = sys.MM.RefaultDistances()
	res.MemSeries = sys.MM.Series()
	res.CPU = sys.Sched.Stats()
	res.IO = sys.Disk.Stats()
	res.Zram = sys.Zram.Stats()
	res.LMKKills = sys.LMK.Kills
	res.Trace = sys.Trace
	if sys.Trace != nil {
		res.Subjects = sys.TraceSubjects()
	}
	res.Obs = sys.Eng.Obs().Snapshot()
	if ice, ok := cfg.Scheme.(*policy.Ice); ok && ice.Framework != nil {
		res.FrozenApps = ice.Framework.Stats().UniqueFrozenUID
	}
	return res, sys
}

// Scenarios lists the four scenario IDs in paper order.
func Scenarios() []string { return []string{"S-A", "S-B", "S-C", "S-D"} }
