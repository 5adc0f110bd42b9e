package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"time"

	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/experiments"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/service"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/workload"
)

// runExperiment runs one registered experiment at full scale, as
// cmd/experiments does, with one worker per CPU and the given base
// seed. Every completed cell's host time is a "cell" sample.
func runExperiment(r *rep, id string, seed int64, probes probeSet) {
	runner, ok := experiments.ByID(id)
	if !ok {
		r.res.Attempted = 1
		r.fail("experiment %q is not registered", id)
		return
	}
	workers := runtime.NumCPU()
	var total int
	var cellSum time.Duration
	var runSpan int
	r.res.BaseSeed = seed
	opts := experiments.Options{
		Seed:    seed,
		Workers: workers,
		Progress: func(p harness.Progress) { // serialised by the harness
			total = p.Total
			cellSum += p.CellTime
			r.sample("cell", msOf(p.CellTime))
			now := time.Now()
			r.spans.add("harness.cell", 1, runSpan, now.Add(-p.CellTime), now)
		},
	}
	if !r.ready() {
		return
	}
	runSpan = r.spans.begin("experiments.Run("+id+")", 1, 0)
	_, data, err := runner.Run(opts)
	r.spans.end(runSpan)
	wall := r.done(total)

	r.res.Attempted = total
	if errs := harness.Errs(err); len(errs) > 0 {
		for _, e := range errs {
			r.fail("%s: %v", e.Cell, e.Panic)
		}
	} else if err != nil {
		if r.res.Attempted == 0 {
			r.res.Attempted = 1
		}
		r.fail("%s: %v", id, err)
	}
	payload, err := json.Marshal(data)
	if err != nil {
		r.fail("%s: marshal result: %v", id, err)
	}
	sum := sha256.Sum256(payload)
	r.res.Digest = hex.EncodeToString(sum[:])
	r.layer("harness.parallel_efficiency", cellSum.Seconds()/(wall.Seconds()*float64(workers)))
	if f8, ok := data.(experiments.Figure8Result); ok {
		cells := make([]map[string]uint64, len(f8.Cells))
		for i, c := range f8.Cells {
			cells[i] = c.Counters
		}
		r.res.Counts = perCellCounts(cells)
	}
	if r.traced() {
		traceExtras(r, probes(seed), []service.JobSpec{{Kind: service.KindExperiment, Experiment: id, Rounds: 10, Seed: seed}})
	}
}

// fig8Probes samples the Figure 8 matrix for the phase probe: every
// device × scenario pair, with the headline schemes in rotation.
func fig8Probes(seed int64) []workload.ScenarioConfig {
	schemes := policy.Headline()
	var cfgs []workload.ScenarioConfig
	for _, dev := range []device.Profile{device.Pixel3, device.P20} {
		for i, sc := range workload.Scenarios() {
			scheme := schemes[(len(cfgs)+i)%len(schemes)]
			cfgs = append(cfgs, scenarioConfig(seed, dev, sc, scheme))
		}
	}
	return cfgs
}

// launchProbes samples the P20 under memory pressure with the two
// schemes Figure 11's launch loop compares.
func launchProbes(seed int64) []workload.ScenarioConfig {
	var cfgs []workload.ScenarioConfig
	for _, scheme := range []string{"LRU+CFS", "Ice"} {
		for _, sc := range workload.Scenarios() {
			cfgs = append(cfgs, scenarioConfig(seed, device.P20, sc, scheme))
		}
	}
	return cfgs
}

func scenarioConfig(seed int64, dev device.Profile, scenario, scheme string) workload.ScenarioConfig {
	sch, err := policy.ByName(scheme)
	if err != nil {
		panic(err)
	}
	return workload.ScenarioConfig{
		Scenario: scenario,
		Device:   dev,
		Scheme:   sch,
		BGCase:   workload.BGApps,
		Duration: 60 * sim.Second,
		Seed:     harness.DeriveSeed(seed, harness.Cell{Device: dev.Name, Scheme: scheme, Scenario: scenario}),
	}
}
