// Command icesim runs one interactive scenario on a simulated device and
// prints the user-experience and memory-management outcome.
//
// Usage:
//
//	icesim -device P20 -scenario S-A -scheme Ice -bg 8 -duration 60
//	icesim -device Pixel3 -scenario S-D -scheme LRU+CFS -case memtester
//	icesim -scheme Ice -rounds 10 -workers 4   # repeated, pooled rounds
//	icesim -zram-codec zstd                    # denser, slower zram tier
//
// Schemes: LRU+CFS, UCSG, Acclaim, Ice, PowerManager.
// Cases: null, apps, cputester, memtester.
// Zram codecs: lz4 (default), zstd, snappy.
//
// With -rounds > 1, the rounds run through the internal/harness bounded
// worker pool with seeds derived per round, and the per-round and mean
// FPS/RIA/memory outcomes are reported.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/trace"
	"github.com/eurosys23/ice/internal/workload"
	"github.com/eurosys23/ice/internal/zram"
)

// options is the fully validated CLI configuration: flag parsing and
// name resolution live in parseFlags so they are testable without
// running a simulation.
type options struct {
	dev      device.Profile
	sch      policy.Scheme
	bc       workload.BGCase
	scenario string
	numBG    int
	duration int
	seed     int64
	rounds   int
	workers  int
	series   bool
	traceN   int
	traceOut string
	stats    bool
}

// parseFlags parses args (not including the program name) and resolves
// every name-valued flag against its registry. Usage/parse errors come
// back wrapped around flag.ErrHelp semantics: the caller decides the
// exit code.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("icesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		devName   = fs.String("device", "P20", "device profile: Pixel3, P20, P40, Pixel4")
		scenario  = fs.String("scenario", "S-A", "scenario: S-A (video call), S-B (short video), S-C (scrolling), S-D (game)")
		scheme    = fs.String("scheme", "LRU+CFS", "management scheme")
		bgCase    = fs.String("case", "apps", "background case: null, apps, cputester, memtester")
		numBG     = fs.Int("bg", 0, "cached BG apps (0 = device default)")
		duration  = fs.Int("duration", 60, "measured seconds")
		seed      = fs.Int64("seed", 1, "random seed")
		rounds    = fs.Int("rounds", 1, "repetitions with re-derived seeds (1 = single verbose run)")
		workers   = fs.Int("workers", 0, "max rounds in flight when -rounds > 1 (0 = GOMAXPROCS)")
		series    = fs.Bool("series", false, "print the per-second FPS series")
		traceN    = fs.Int("trace", 0, "record a Systrace-like event ring of this capacity and print its summary")
		traceOut  = fs.String("trace-out", "", "write the recorded trace as Chrome trace-event JSON (loadable in Perfetto / chrome://tracing)")
		stats     = fs.Bool("stats", false, "dump the instrument-registry snapshot (counters, gauges, histograms)")
		zramCodec = fs.String("zram-codec", "", "zram compression preset: lz4, zstd, snappy (empty = device default, lz4)")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}

	dev, ok := device.ByName(*devName)
	if !ok {
		return options{}, fmt.Errorf("unknown device %q", *devName)
	}
	if _, err := zram.Preset(*zramCodec); err != nil {
		return options{}, err
	}
	// The codec rides on the device profile: device.Apply resolves it
	// when the simulation builds the zram tier.
	dev.ZramCodec = *zramCodec
	sch, err := policy.ByName(*scheme)
	if err != nil {
		return options{}, err
	}
	var bc workload.BGCase
	switch *bgCase {
	case "null":
		bc = workload.BGNull
	case "apps":
		bc = workload.BGApps
	case "cputester":
		bc = workload.BGCputester
	case "memtester":
		bc = workload.BGMemtester
	default:
		return options{}, fmt.Errorf("unknown case %q", *bgCase)
	}

	return options{
		dev: dev, sch: sch, bc: bc,
		scenario: *scenario, numBG: *numBG, duration: *duration,
		seed: *seed, rounds: *rounds, workers: *workers,
		series: *series, traceN: *traceN, traceOut: *traceOut, stats: *stats,
	}, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if o.rounds > 1 {
		runRounds(o.dev, o.sch, o.bc, o.scenario, o.numBG, o.duration, o.seed, o.rounds, o.workers)
		return
	}

	// A Perfetto export needs a recorded trace; give -trace-out a roomy
	// default ring when -trace didn't size one explicitly.
	traceCap := o.traceN
	if o.traceOut != "" && traceCap == 0 {
		traceCap = 1 << 17
	}

	duration := sim.Time(o.duration) * sim.Second
	res := workload.RunScenario(workload.ScenarioConfig{
		Scenario: o.scenario,
		Device:   o.dev,
		Scheme:   o.sch,
		BGCase:   o.bc,
		NumBG:    o.numBG,
		Duration: duration,
		Seed:     o.seed,
		TraceCap: traceCap,
	})

	fmt.Printf("device    : %s\n", o.dev)
	fmt.Printf("scenario  : %s (%s), scheme %s, %v\n", o.scenario, o.bc, o.sch.Name(), duration)
	fmt.Printf("frames    : %s\n", res.Frames)
	fmt.Printf("memory    : reclaimed=%d refaulted=%d (FG %d / BG %d, 4KiB-eq x16)\n",
		res.Mem.Total.Reclaimed, res.Mem.Total.Refaulted, res.Mem.RefaultFG, res.Mem.RefaultBG)
	fmt.Printf("          : refault ratio %.1f%%, BG share %.1f%%, direct-reclaim episodes %d\n",
		100*res.Mem.RefaultRatio(), 100*res.Mem.BGRefaultShare(), res.Mem.DirectReclaimEpisodes)
	fmt.Printf("cpu       : utilisation %.1f%% (peak %.1f%%)\n",
		100*res.CPU.Utilization(), 100*res.CPU.PeakUtilization())
	fmt.Printf("flash i/o : %d requests, %d pages read, %d written\n",
		res.IO.TotalRequests(), res.IO.PagesRead, res.IO.PagesWritten)
	fmt.Printf("zram      : %d stored, %d loaded, %d rejected-full\n",
		res.Zram.StoredTotal, res.Zram.LoadedTotal, res.Zram.RejectedFull)
	fmt.Printf("lmk kills : %d\n", res.LMKKills)
	if res.Distances.Count > 0 {
		fmt.Printf("workingset: refault distance mean=%.0f p50≤%d p90≤%d (n=%d)\n",
			res.Distances.Mean(), res.Distances.Percentile(50), res.Distances.Percentile(90), res.Distances.Count)
	}
	if res.FrozenApps > 0 {
		fmt.Printf("ice       : %d applications frozen\n", res.FrozenApps)
	}
	if o.series {
		fmt.Printf("fps series: ")
		for _, f := range res.Frames.FPSSeries {
			fmt.Printf("%.0f ", f)
		}
		fmt.Println()
	}
	if res.Trace != nil && o.traceN > 0 {
		fmt.Println("trace summary (count × event, total args):")
		for _, s := range res.Trace.Summarize() {
			fmt.Printf("  %6d  %-8s %-14s argsum=%d arg2sum=%d\n",
				s.Count, s.Cat, s.Name, s.ArgSum, s.Arg2Sum)
		}
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := trace.ExportChrome(f, res.Trace.Events(), res.Subjects); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace     : %d events exported to %s\n", res.Trace.Len(), o.traceOut)
	}
	if o.stats {
		fmt.Println("instrument registry:")
		fmt.Print(res.Obs.String())
	}
}

// runRounds repeats the configured scenario over the harness pool and
// prints per-round plus aggregate outcomes.
func runRounds(dev device.Profile, sch policy.Scheme, bc workload.BGCase,
	scenario string, numBG, duration int, seed int64, rounds, workers int) {
	cells := make([]harness.Cell, rounds)
	for r := range cells {
		cells[r] = harness.Cell{
			Device: dev.Name, Scheme: sch.Name(), Scenario: scenario,
			Variant: bc.String(), Round: r,
		}
	}
	type sample struct {
		fps, ria             float64
		reclaimed, refaulted uint64
	}
	runs, err := harness.Map(harness.Config{BaseSeed: seed, Workers: workers}, cells,
		func(c harness.Cell) sample {
			// Each round needs its own scheme instance: policies carry
			// per-run framework state.
			s, err := policy.ByName(c.Scheme)
			if err != nil {
				panic(err)
			}
			res := workload.RunScenario(workload.ScenarioConfig{
				Scenario: c.Scenario,
				Device:   dev,
				Scheme:   s,
				BGCase:   bc,
				NumBG:    numBG,
				Duration: sim.Time(duration) * sim.Second,
				Seed:     c.Seed,
			})
			return sample{
				fps:       res.Frames.AvgFPS(),
				ria:       res.Frames.RIA(),
				reclaimed: res.Mem.Total.Reclaimed,
				refaulted: res.Mem.Total.Refaulted,
			}
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("device    : %s\n", dev)
	fmt.Printf("scenario  : %s (%s), scheme %s, %d rounds (workers %d)\n",
		scenario, bc, sch.Name(), rounds, workers)
	var fps, ria harness.Agg
	var reclaimed, refaulted harness.Counter
	for r, s := range runs {
		fmt.Printf("round %-3d : fps=%.1f ria=%.1f%% reclaimed=%d refaulted=%d\n",
			r, s.fps, 100*s.ria, s.reclaimed, s.refaulted)
		fps.Add(s.fps)
		ria.Add(s.ria)
		reclaimed.Add(s.reclaimed)
		refaulted.Add(s.refaulted)
	}
	fmt.Printf("mean      : fps=%.1f (p50=%.1f) ria=%.1f%% reclaimed=%d refaulted=%d\n",
		fps.Mean(), fps.Percentile(50), 100*ria.Mean(), reclaimed.Mean(), refaulted.Mean())
}
