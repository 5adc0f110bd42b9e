package workload

import (
	"github.com/eurosys23/ice/internal/android"
	"github.com/eurosys23/ice/internal/app"
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/metrics"
	"github.com/eurosys23/ice/internal/mm"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/sched"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/storage"
)

// LaunchLoopConfig configures the §6.3 launch experiment: "We launch the
// applications for ten rounds repeatedly. Each application in the FG runs
// for 30 seconds. Then we switch it to the BG and startup the next one."
// Monkey-style usage events run while each app is foreground.
type LaunchLoopConfig struct {
	Device device.Profile
	Scheme policy.Scheme
	// Rounds of the full app list (default 10).
	Rounds int
	// Dwell is FG time per app (default 30 s).
	Dwell sim.Time
	// Apps is the launch set (default: the 20-app catalog).
	Apps []app.Spec
	Seed int64
}

// LaunchLoopResult aggregates the loop's outcome.
type LaunchLoopResult struct {
	// PerRound[r] holds the launch records of round r (0-based).
	PerRound [][]metrics.LaunchRecord
	// All is every record in order.
	All metrics.LaunchStats
	// HotPerRound / ColdPerRound count launch styles per round.
	HotPerRound  []int
	ColdPerRound []int
	LMKKills     int
	Mem          mm.Stats
	CPU          sched.Stats
	IO           storage.Stats
	Elapsed      sim.Time
}

// MeanAll / MeanCold / MeanHot return the loop's launch-latency means.
func (r *LaunchLoopResult) MeanAll() sim.Time { return r.All.Mean(nil) }

// MeanCold returns the mean cold-launch latency.
func (r *LaunchLoopResult) MeanCold() sim.Time { return r.All.MeanCold() }

// MeanHot returns the mean hot-launch latency.
func (r *LaunchLoopResult) MeanHot() sim.Time { return r.All.MeanHot() }

// HotLaunchesRounds2Plus counts hot launches from round 2 on (round 1 is
// all-cold by construction; Figure 11b plots rounds 2–10).
func (r *LaunchLoopResult) HotLaunchesRounds2Plus() int {
	var n int
	for i := 1; i < len(r.HotPerRound); i++ {
		n += r.HotPerRound[i]
	}
	return n
}

// RunLaunchLoop executes the launch loop.
func RunLaunchLoop(cfg LaunchLoopConfig) LaunchLoopResult {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 10
	}
	if cfg.Dwell <= 0 {
		cfg.Dwell = 30 * sim.Second
	}
	if cfg.Apps == nil {
		cfg.Apps = app.Catalog()
	}
	sys := android.NewSystem(cfg.Seed, cfg.Device)
	if cfg.Scheme != nil {
		cfg.Scheme.Attach(sys)
	}
	sys.AM.InstallAll(cfg.Apps)

	var res LaunchLoopResult
	start := sys.Eng.Now()
	for round := 0; round < cfg.Rounds; round++ {
		var records []metrics.LaunchRecord
		for _, spec := range cfg.Apps {
			sys.AM.RequestForeground(spec.Name, func(rec metrics.LaunchRecord) {
				records = append(records, rec)
			})
			waitLaunchIdle(sys)
			inst := sys.AM.App(spec.Name)
			inst.StartUsage()
			sys.Run(cfg.Dwell)
			inst.StopUsage()
		}
		res.PerRound = append(res.PerRound, records)
		hot, cold := 0, 0
		for _, rec := range records {
			if rec.Cold {
				cold++
			} else {
				hot++
			}
			res.All.Add(rec)
		}
		res.HotPerRound = append(res.HotPerRound, hot)
		res.ColdPerRound = append(res.ColdPerRound, cold)
	}
	res.LMKKills = sys.LMK.Kills
	res.Mem = sys.MM.Stats()
	res.CPU = sys.Sched.Stats()
	res.IO = sys.Disk.Stats()
	res.Elapsed = sys.Eng.Now() - start
	return res
}

// WorstCaseHotLaunch measures §6.3.1's adversarial case: every page of a
// cached application is reclaimed and the app frozen; the launch then
// pays the thaw plus a full refault of the resume set. It returns the mean
// worst-case hot-launch latency over the app set, together with the mean
// ordinary hot-launch latency measured on the same system for comparison.
func WorstCaseHotLaunch(dev device.Profile, seed int64, apps []app.Spec) (worst, normal sim.Time) {
	if apps == nil {
		apps = app.Catalog()
	}
	sys := android.NewSystem(seed, dev)
	sys.AM.InstallAll(apps)

	var worstSum, normalSum sim.Time
	var n int
	for _, spec := range apps {
		// Cold launch, dwell, background it.
		bringToForeground(sys, spec.Name)
		sys.Run(2 * sim.Second)
		sys.AM.RequestHome()
		sys.Run(sim.Second)

		inst := sys.AM.App(spec.Name)
		if !inst.Running() {
			continue
		}

		// Ordinary hot launch first.
		var rec metrics.LaunchRecord
		sys.AM.RequestForeground(spec.Name, func(r metrics.LaunchRecord) { rec = r })
		waitLaunchIdle(sys)
		if rec.Cold {
			continue // LMK got it; skip this app
		}
		normalSum += rec.Latency
		sys.AM.RequestHome()
		sys.Run(sim.Second)

		// Worst case: reclaim everything, freeze, relaunch.
		for _, p := range inst.Processes() {
			sys.MM.ReclaimProcess(p.PID)
		}
		sys.FreezeApp(inst.UID)
		sys.AM.RequestForeground(spec.Name, func(r metrics.LaunchRecord) { rec = r })
		// Thaw-on-launch is the framework's job; without ICE attached we
		// model the stock freezer's thaw here.
		sys.ThawApp(inst.UID)
		waitLaunchIdle(sys)
		if !rec.Cold {
			worstSum += rec.Latency
			n++
		}
		sys.AM.RequestHome()
		sys.Run(sim.Second)
		// Tear the app down so accumulated caching pressure does not bleed
		// thrash stalls into later apps' measurements: the paper probes
		// each app's intrinsic worst case.
		sys.LMK.KillForTest(inst)
		sys.Run(sim.Second)
	}
	if n == 0 {
		return 0, 0
	}
	return worstSum / sim.Time(n), normalSum / sim.Time(n)
}
