// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks the program's outputs, and prints
// every metric by name with its unit and sample count, ending with one
// JSON line:
//
//	perfbench --workload fig8-matrix --seed 1 --seconds 20 --trace 0
//
// Every repetition runs in a fresh child process, so peak RSS and CPU
// time belong to that repetition alone. --trace 0 reports the
// end-to-end metrics from untraced repetitions; --trace 1 alternates
// untraced and traced repetitions and reports the per-layer metrics
// from the traced ones (CPU profile folded by package, spans around the
// public calls, phase probes) plus the tracing overhead.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/eurosys23/ice/internal/workload"
)

// defaultSeed is the experiments' own default base seed, the one
// cmd/experiments uses; golden.json pins the outputs at it.
const defaultSeed = 20230509

// setupProbes is how many set-up-only children an untraced run starts
// on top of its full repetitions, so setup_s is a median of several.
const setupProbes = 5

type workloadDef struct {
	name string
	run  func(*rep)
}

// fig8-matrix takes its base seed from --seed: over 320 cells the
// simulated work barely depends on it. launch-loop always regenerates
// Figure 11 at the default seed: its two long launch-loop cells cost
// up to 20% more or less host time from one base seed to the next,
// which would swamp any bound, so --seed does not reach it.
var workloads = []workloadDef{
	{"fig8-matrix", func(r *rep) { runExperiment(r, "fig8", r.seed, fig8Probes) }},
	{"launch-loop", func(r *rep) { runExperiment(r, "fig11", defaultSeed, launchProbes) }},
	{"daemon-mixed", runDaemon},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

//go:embed golden.json
var goldenJSON []byte

// golden maps a workload to its output digest at defaultSeed.
func golden() (map[string]string, error) {
	var g map[string]string
	err := json.Unmarshal(goldenJSON, &g)
	return g, err
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"sched.cpu_share", "ratio"}, {"sim.cpu_share", "ratio"}, {"proc.cpu_share", "ratio"},
	{"android.cpu_share", "ratio"}, {"policy.cpu_share", "ratio"}, {"mm.cpu_share", "ratio"},
	{"zram.cpu_share", "ratio"}, {"storage.cpu_share", "ratio"}, {"runtime.cpu_share", "ratio"},
	{"service.cpu_share", "ratio"}, {"net.cpu_share", "ratio"}, {"json.cpu_share", "ratio"},
	{"crypto.cpu_share", "ratio"},
	{"sim.ns_per_event", "ns"},
	{"runtime.allocs_per_cell", "count"}, {"runtime.gc_cycles_per_cell", "count"},
	{"workload.setup_ms", "ms"}, {"workload.bg_fill_ms", "ms"},
	{"workload.launch_ms", "ms"}, {"workload.steady_ms", "ms"},
	{"harness.parallel_efficiency", "ratio"}, {"harness.overhead_us_per_cell", "us"},
	{"service.submit_ms_p50", "ms"}, {"service.result_ms_p50", "ms"},
	{"service.cache_key_us", "us"}, {"service.queue_wait_ms_p50", "ms"},
	{"service.steal_ratio", "ratio"}, {"service.lease_requeues", "count"},
	{"service.mem_hit_ratio", "ratio"}, {"service.disk_hit_ratio", "ratio"},
	{"sim.events_per_cell", "count"}, {"sched.quanta_per_cell", "count"},
	{"mm.reclaim_scans_per_cell", "count"}, {"mm.reclaimed_per_scan", "count"},
	{"mm.refault_pages_per_cell", "count"}, {"mm.direct_reclaim_per_cell", "count"},
	{"zram.stored_pages_per_cell", "count"}, {"storage.pages_read_per_cell", "count"},
	{"trace.overhead", "ratio"},
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", defaultSeed, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 20, "measure for at least this many seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced repetitions")
	workdir := flag.String("workdir", ".bench_build/work", "directory for profiles, spans and daemon state")
	goTool := flag.String("go", "go", "go command used for `go tool pprof`")
	child := flag.String("child", "", "run one repetition in this process: setup, rep or traced")
	spawn := flag.Int64("spawn", 0, "wall-clock UnixNano at which the parent started this child")
	flag.Parse()

	if *child != "" {
		os.Exit(runChild(*child, *name, *seed, *spawn, *workdir))
	}
	if _, ok := workloadByName(*name); !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := runParent(*name, *seed, *seconds, *trace == 1, *workdir, *goTool); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// measured is one child's report plus its process-level figures.
type measured struct {
	mode  string
	res   repResult
	cpuS  float64
	rssMB float64
}

// spawnChild runs one repetition in a fresh process and waits for it.
func spawnChild(ctx context.Context, mode, name string, seed int64, workdir string) (measured, error) {
	self, err := os.Executable()
	if err != nil {
		return measured{}, err
	}
	var stdout bytes.Buffer
	args := []string{"-child", mode, "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-workdir", workdir, "-spawn", ""}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.Args[len(cmd.Args)-1] = strconv.FormatInt(time.Now().UnixNano(), 10)
	if err := cmd.Run(); err != nil {
		return measured{}, fmt.Errorf("%s repetition of %s: %w", mode, name, err)
	}
	m := measured{mode: mode}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		m.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		m.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &m.res); err != nil {
		return measured{}, fmt.Errorf("%s repetition of %s: bad report: %w", mode, name, err)
	}
	return m, nil
}

// runParent measures one workload for the given time and prints the
// report.
func runParent(name string, seed int64, seconds float64, traced bool, workdir, goTool string) error {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	// A run ends within three minutes even if a child hangs.
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(170*time.Second))
	defer cancel()
	elapsed := func() float64 { return time.Since(start).Seconds() }
	var runs []measured
	spawn := func(mode string) error {
		m, err := spawnChild(ctx, mode, name, seed, workdir)
		if err == nil {
			runs = append(runs, m)
		}
		return err
	}
	// Start another repetition only while it is expected to end within
	// the measuring time, judged by the mean of those so far.
	var spent time.Duration
	more := func(done, least int) bool {
		if done < least {
			return true
		}
		return elapsed()+spent.Seconds()/float64(done) <= seconds
	}
	if !traced {
		for i := 0; i < setupProbes; i++ {
			if err := spawn("setup"); err != nil {
				return err
			}
		}
		for full := 0; more(full, 2); full++ {
			t0 := time.Now()
			if err := spawn("rep"); err != nil {
				return err
			}
			spent += time.Since(t0)
		}
	} else {
		for pairs := 0; more(pairs, 1); pairs++ {
			t0 := time.Now()
			if err := spawn("rep"); err != nil {
				return err
			}
			if err := spawn("traced"); err != nil {
				return err
			}
			spent += time.Since(t0)
		}
	}

	rep := summarize(name, seed, runs, workdir)
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	var metrics map[string]metricValue
	if traced {
		var err error
		if metrics, err = perLayerMetrics(runs, goTool); err != nil {
			return err
		}
		printMetrics(perLayer, metrics)
	} else {
		metrics = endToEndMetrics(runs)
		printMetrics(endToEnd, metrics)
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

func printMetrics(defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		fmt.Printf("%-34s %14.6g %-6s n=%d\n", d.name, m[d.name].Value, d.unit, m[d.name].n)
	}
}

// summary is the outcome check over every repetition of a run.
type summary struct {
	attempted, failed int
	lines             []string
}

// summarize checks the repetitions' outputs against each other and,
// at the default seed, against golden.json, and renders the
// workload-level figures every run prints: latency percentiles with
// their sample counts, the failure fraction, the exact per-cell counts
// and the realised request mix. Earlier runs of the same seed in the
// same checkout left their digest and counts under workdir; this run
// must agree with them too.
func summarize(name string, seed int64, runs []measured, workdir string) summary {
	var s summary
	var digest string
	var counts map[string]float64
	samples := map[string][]float64{}
	var mix map[string]float64
	baseSeed := int64(-1)
	for _, m := range runs {
		if m.mode == "setup" {
			continue
		}
		baseSeed = m.res.BaseSeed
		s.attempted += m.res.Attempted
		s.failed += m.res.Failed
		for _, e := range m.res.Errors {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, e)
		}
		for k, v := range m.res.Samples {
			if m.mode == "rep" {
				samples[k] = append(samples[k], v...)
			}
		}
		if m.res.Mix != nil {
			mix = m.res.Mix
		}
		switch {
		case digest == "":
			digest = m.res.Digest
		case m.res.Digest != digest:
			s.failed += m.res.Attempted
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: output digest %s differs from an earlier repetition's %s\n",
				name, seed, m.res.Digest, digest)
		}
		if diff := diffCounts(counts, m.res.Counts); diff != "" {
			s.failed += m.res.Attempted
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: per-cell counts differ between repetitions: %s\n", name, seed, diff)
		}
		counts = mergeCounts(counts, m.res.Counts)
	}
	if err := checkEarlierRuns(workdir, name, seed, digest, counts); err != nil {
		s.failed += s.attempted
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", name, seed, err)
	}
	g, err := golden()
	if err != nil {
		s.failed++
		fmt.Fprintf(os.Stderr, "perfbench: golden.json: %v\n", err)
	}
	if want, ok := g[name]; ok && (baseSeed == defaultSeed || baseSeed == 0) && digest != want {
		s.failed += s.attempted
		fmt.Fprintf(os.Stderr, "perfbench: %s: output digest %s, golden.json expects %s\n", name, digest, want)
	}

	add := func(format string, args ...interface{}) { s.lines = append(s.lines, fmt.Sprintf(format, args...)) }
	add("# workload %s seed %d", name, seed)
	add("%-34s %14s", "output_digest", digest)
	for _, kind := range []string{"cell", "cold_job", "warm_job", "submit", "result", "queue_wait"} {
		if xs, ok := samples[kind]; ok {
			s.lines = append(s.lines, latencyLines(kind+"_ms", xs)...)
		}
	}
	frac := 0.0
	if s.attempted > 0 {
		frac = float64(s.failed) / float64(s.attempted)
	}
	add("%-34s %14.6g %-6s n=%d", "fail_frac", frac, "ratio", s.attempted)
	for _, k := range sortedKeys(counts) {
		add("%-34s %14.6f %-6s exact", k, counts[k], "count")
	}
	for _, k := range sortedKeys(mix) {
		add("%-34s %14.6g %-6s", "mix."+k, mix[k], "")
	}
	return s
}

// outputRecord is what a run leaves for later runs of the same seed.
type outputRecord struct {
	Digest string             `json:"digest"`
	Counts map[string]float64 `json:"counts"`
}

// checkEarlierRuns compares this run's outputs with those recorded by
// earlier runs of the same workload and seed, then records the union.
func checkEarlierRuns(workdir, name string, seed int64, digest string, counts map[string]float64) error {
	path := filepath.Join(workdir, fmt.Sprintf("outputs-%s-%d.json", name, seed))
	var prev outputRecord
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if prev.Digest != digest {
			return fmt.Errorf("output digest %s differs from an earlier run's %s", digest, prev.Digest)
		}
		if diff := diffCounts(prev.Counts, counts); diff != "" {
			return fmt.Errorf("per-cell counts differ from an earlier run's: %s", diff)
		}
	}
	b, err := json.Marshal(outputRecord{digest, mergeCounts(prev.Counts, counts)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// diffCounts reports the first count two repetitions disagree on.
func diffCounts(a, b map[string]float64) string {
	for _, k := range sortedKeys(b) {
		if v, ok := a[k]; ok && v != b[k] {
			return fmt.Sprintf("%s %v vs %v", k, v, b[k])
		}
	}
	return ""
}

func mergeCounts(into, from map[string]float64) map[string]float64 {
	if into == nil {
		into = map[string]float64{}
	}
	for k, v := range from {
		into[k] = v
	}
	return into
}

func endToEndMetrics(runs []measured) map[string]metricValue {
	var setup, wall, cpu, rss []float64
	for _, m := range runs {
		setup = append(setup, m.res.SetupS)
		if m.mode != "rep" {
			continue
		}
		wall = append(wall, m.res.WallS)
		cpu = append(cpu, m.cpuS)
		rss = append(rss, m.rssMB)
	}
	return map[string]metricValue{
		"setup_s":     {median(setup), "s", len(setup)},
		"wall_s":      {median(wall), "s", len(wall)},
		"cpu_s":       {median(cpu), "s", len(cpu)},
		"peak_rss_mb": {median(rss), "MB", len(rss)},
	}
}

// perLayerMetrics takes the median of every per-layer figure over the
// traced repetitions. Layers a workload does not exercise read 0.
func perLayerMetrics(runs []measured, goTool string) (map[string]metricValue, error) {
	binary, err := os.Executable()
	if err != nil {
		return nil, err
	}
	vals := map[string][]float64{}
	var tracedWall, plainWall []float64
	for _, m := range runs {
		switch m.mode {
		case "rep":
			plainWall = append(plainWall, m.res.WallS)
			continue
		case "traced":
			tracedWall = append(tracedWall, m.res.WallS)
		default:
			continue
		}
		for k, v := range m.res.Layer {
			vals[k] = append(vals[k], v)
		}
		for k, v := range m.res.Counts {
			vals[k] = append(vals[k], v)
		}
		if m.res.Profile == "" {
			return nil, errors.New("traced repetition wrote no CPU profile")
		}
		shares, err := foldProfile(goTool, binary, m.res.Profile)
		if err != nil {
			return nil, err
		}
		for k, v := range shares {
			vals[k] = append(vals[k], v)
		}
	}
	vals["trace.overhead"] = []float64{median(tracedWall) / median(plainWall)}
	out := map[string]metricValue{}
	for _, d := range perLayer {
		v := 0.0
		if xs := vals[d.name]; len(xs) > 0 {
			v = median(xs)
		}
		out[d.name] = metricValue{v, d.unit, len(vals[d.name])}
	}
	return out, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// probeSet picks the phase-probe scenarios for a workload.
type probeSet func(seed int64) []workload.ScenarioConfig
