package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"github.com/eurosys23/ice/internal/android"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/service"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/workload"
)

// phaseTimes are the host times of one scenario's phases.
type phaseTimes struct {
	setup, bgFill, launch, steady time.Duration
	events, steadyEvents          uint64
}

// probeScenario drives one scenario through the same public calls, in
// the same order and with the same constants, as workload.RunScenario,
// and times each phase. It returns the device's instrument snapshot for
// the measured window; probePhases checks that snapshot against
// RunScenario's, so the probe cannot drift from the code it times.
func probeScenario(cfg workload.ScenarioConfig, spans *spanLog, trace int) (phaseTimes, obs.Snapshot) {
	if cfg.Duration <= 0 {
		cfg.Duration = 60 * sim.Second
	}
	if cfg.Settle <= 0 {
		cfg.Settle = 2 * sim.Second
	}
	var pt phaseTimes
	root := spans.begin("workload.scenario", trace, 0)
	defer spans.end(root)
	phase := func(name string, d *time.Duration, fn func()) {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		*d = t1.Sub(t0)
		spans.add(name, trace, root, t0, t1)
	}

	var sys *android.System
	var fg string
	phase("workload.NewScenarioSystem", &pt.setup, func() {
		sys, fg = workload.NewScenarioSystem(cfg)
	})
	rng := sim.NewRand(cfg.Seed ^ 0x5ce0a11)
	phase("workload.CacheApps", &pt.bgFill, func() {
		switch cfg.BGCase {
		case workload.BGApps:
			n := cfg.NumBG
			if n == 0 {
				n = workload.DefaultBGCount(cfg.Device)
			}
			workload.CacheApps(sys, workload.PickBGApps(rng, n, fg), 500*sim.Millisecond)
		case workload.BGCputester:
			workload.CacheApps(sys, []string{"cputester"}, 500*sim.Millisecond)
		case workload.BGMemtester:
			workload.CacheApps(sys, []string{"memtester"}, 500*sim.Millisecond)
		}
	})
	phase("workload.launch", &pt.launch, func() {
		sys.AM.RequestForeground(fg, nil)
		if !sys.RunUntil(sys.AM.LaunchIdle, 120*sim.Second, 20*sim.Millisecond) {
			panic("probe: launch did not complete within timeout")
		}
		sys.Run(cfg.Settle)
	})
	renderer := android.NewRenderer(sys)
	sys.ResetMeasurement()
	renderer.Start(sys.AM.App(fg))
	before := sys.Eng.Dispatched()
	phase("workload.steady", &pt.steady, func() {
		sys.Run(cfg.Duration)
	})
	renderer.Stop()
	pt.steadyEvents = sys.Eng.Dispatched() - before
	pt.events = sys.Eng.Dispatched()
	return pt, sys.Eng.Obs().Snapshot()
}

// probePhases times the scenario phases of cfgs, checks each probe
// against workload.RunScenario, and records the phase medians, the
// event-loop cost and the probe's exact per-cell counts.
func probePhases(r *rep, cfgs []workload.ScenarioConfig) {
	var setup, bgFill, launch, steady []float64
	var events, steadyEvents uint64
	var steadyNs int64
	var snaps []map[string]uint64
	for i, cfg := range cfgs {
		pt, snap := probeScenario(withFreshScheme(cfg), r.spans, 1000+i)
		want := workload.RunScenario(withFreshScheme(cfg)).Obs.Counters
		if !reflect.DeepEqual(snap.Counters, want) {
			r.fail("probe %s seed %d: counters differ from workload.RunScenario", scenarioLabel(cfg), cfg.Seed)
		}
		setup = append(setup, msOf(pt.setup))
		bgFill = append(bgFill, msOf(pt.bgFill))
		launch = append(launch, msOf(pt.launch))
		steady = append(steady, msOf(pt.steady))
		events += pt.events
		steadyEvents += pt.steadyEvents
		steadyNs += pt.steady.Nanoseconds()
		snaps = append(snaps, counterMap(snap))
	}
	if len(cfgs) == 0 {
		return
	}
	r.layer("workload.setup_ms", median(setup))
	r.layer("workload.bg_fill_ms", median(bgFill))
	r.layer("workload.launch_ms", median(launch))
	r.layer("workload.steady_ms", median(steady))
	r.layer("sim.ns_per_event", float64(steadyNs)/float64(steadyEvents))
	counts := perCellCounts(snaps)
	counts["sim.events_per_cell"] = float64(events) / float64(len(cfgs))
	// Counts taken from the workload's own result payloads win over
	// the probe's: they cover every cell, not a sample.
	for k, v := range r.res.Counts {
		counts[k] = v
	}
	r.res.Counts = counts
}

func counterMap(s obs.Snapshot) map[string]uint64 {
	m := make(map[string]uint64, len(s.Counters))
	for _, c := range s.Counters {
		m[c.Name] = c.Value
	}
	return m
}

// perCellCounts folds per-cell instrument counters into the exact
// per-cell counts the benchmark reports.
func perCellCounts(cells []map[string]uint64) map[string]float64 {
	var quanta, scans, reclaimed, refaults, direct, stored, read uint64
	for _, c := range cells {
		quanta += c["sched.quanta.kernel"] + c["sched.quanta.service"] + c["sched.quanta.fg_app"] + c["sched.quanta.bg_app"]
		scans += c["mm.reclaim.scans"]
		reclaimed += c["mm.reclaim.pages"]
		refaults += c["mm.refault.pages"]
		direct += c["mm.direct_reclaim.episodes"]
		stored += c["zram.stored.pages"]
		read += c["io.pages_read"]
	}
	n := float64(len(cells))
	out := map[string]float64{
		"sched.quanta_per_cell":       float64(quanta) / n,
		"mm.reclaim_scans_per_cell":   float64(scans) / n,
		"mm.refault_pages_per_cell":   float64(refaults) / n,
		"mm.direct_reclaim_per_cell":  float64(direct) / n,
		"zram.stored_pages_per_cell":  float64(stored) / n,
		"storage.pages_read_per_cell": float64(read) / n,
		"mm.reclaimed_per_scan":       0,
	}
	if scans > 0 {
		out["mm.reclaimed_per_scan"] = float64(reclaimed) / float64(scans)
	}
	return out
}

// harnessOverhead times harness.MapContext over no-op cells: the cost
// the harness adds to every cell it runs.
func harnessOverhead(r *rep) {
	const n = 20000
	cells := make([]harness.Cell, n)
	for i := range cells {
		cells[i] = harness.Cell{Scenario: "noop", Round: i}
	}
	t0 := time.Now()
	_, err := harness.MapContext(context.Background(),
		harness.Config{BaseSeed: r.seed, Workers: runtime.NumCPU()}, cells,
		func(c harness.Cell) int64 { return c.Seed })
	t1 := time.Now()
	r.spans.add("harness.MapContext(noop)", 2000, 0, t0, t1)
	if err != nil {
		r.fail("harness no-op matrix: %v", err)
	}
	r.layer("harness.overhead_us_per_cell", float64(t1.Sub(t0).Nanoseconds())/1e3/n)
}

// cacheKeyCost times service.CacheKey over the workload's job specs.
func cacheKeyCost(r *rep, specs []service.JobSpec) {
	const rounds = 20000
	t0 := time.Now()
	var sink int
	for i := 0; i < rounds; i++ {
		sink += len(service.CacheKey(specs[i%len(specs)], "perfbench"))
	}
	t1 := time.Now()
	r.spans.add("service.CacheKey", 3000, 0, t0, t1)
	if sink != rounds*64 {
		r.fail("cache key length: got %d bytes over %d keys", sink, rounds)
	}
	r.layer("service.cache_key_us", float64(t1.Sub(t0).Nanoseconds())/1e3/rounds)
}

// traceExtras runs the traced-only probes every workload shares.
func traceExtras(r *rep, cfgs []workload.ScenarioConfig, specs []service.JobSpec) {
	probePhases(r, cfgs)
	harnessOverhead(r)
	cacheKeyCost(r, specs)
}

// withFreshScheme gives cfg its own scheme instance: a scheme attaches
// to exactly one simulated device.
func withFreshScheme(cfg workload.ScenarioConfig) workload.ScenarioConfig {
	sch, err := policy.ByName(cfg.Scheme.Name())
	if err != nil {
		panic(err)
	}
	cfg.Scheme = sch
	return cfg
}

func scenarioLabel(cfg workload.ScenarioConfig) string {
	return fmt.Sprintf("%s/%s/%s/%s", cfg.Device.Name, cfg.Scenario, cfg.Scheme.Name(), cfg.BGCase)
}
