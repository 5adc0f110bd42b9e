package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// repResult is what one child process reports about one repetition of
// a workload. The parent adds the process-level figures (CPU seconds,
// peak RSS) from the child's rusage.
type repResult struct {
	SetupS    float64  `json:"setup_s"`
	WallS     float64  `json:"wall_s"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Digest fingerprints the workload's outputs; two repetitions of
	// one seed must agree on it.
	Digest string `json:"digest,omitempty"`
	// BaseSeed is the experiment base seed an experiment workload ran
	// at; golden.json pins the digest at defaultSeed.
	BaseSeed int64 `json:"base_seed,omitempty"`
	// Samples holds per-operation latencies in milliseconds, by kind.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Counts are exact simulated counts per cell: a speed-only change
	// must leave every one of them unchanged.
	Counts map[string]float64 `json:"counts,omitempty"`
	// Layer holds per-layer figures measured inside the process.
	Layer map[string]float64 `json:"layer,omitempty"`
	// Mix describes the request mix a generated workload realised.
	Mix map[string]float64 `json:"mix,omitempty"`
	// Profile is the CPU profile path of a traced repetition.
	Profile string `json:"profile,omitempty"`
}

// rep is one repetition running in a child process.
type rep struct {
	mode    string // "setup", "rep" or "traced"
	seed    int64
	spawn   time.Time
	workdir string
	res     repResult
	spans   *spanLog

	mu      sync.Mutex // guards res.Errors/Failed from concurrent clients
	start   time.Time
	mem0    runtime.MemStats
	profile *os.File
}

func (r *rep) traced() bool { return r.mode == "traced" }

// fail records one failed operation with its reason.
func (r *rep) fail(format string, args ...interface{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Failed++
	if len(r.res.Errors) < 20 {
		r.res.Errors = append(r.res.Errors, fmt.Sprintf(format, args...))
	}
}

// ready ends set-up: the first unit of work can be issued now. It
// reports whether the repetition goes on to the measured work (a
// set-up-only child stops here). A traced repetition starts its CPU
// profile and allocation counters at this point, so neither covers
// set-up.
func (r *rep) ready() bool {
	r.res.SetupS = time.Since(r.spawn).Seconds()
	if r.mode == "setup" {
		return false
	}
	if r.traced() {
		runtime.ReadMemStats(&r.mem0)
		path := filepath.Join(r.workdir, fmt.Sprintf("cpu-%d.pprof", os.Getpid()))
		f, err := os.Create(path)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			r.fail("start cpu profile: %v", err)
		} else {
			r.profile = f
			r.res.Profile = path
		}
	}
	r.start = time.Now()
	return true
}

// done ends the measured work and returns the measured wall time.
func (r *rep) done(cells int) time.Duration {
	wall := time.Since(r.start)
	r.res.WallS = wall.Seconds()
	if r.profile != nil {
		pprof.StopCPUProfile()
		if err := r.profile.Close(); err != nil {
			r.fail("close cpu profile: %v", err)
		}
		r.profile = nil
	}
	if r.traced() && cells > 0 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		r.layer("runtime.allocs_per_cell", float64(m.Mallocs-r.mem0.Mallocs)/float64(cells))
		r.layer("runtime.gc_cycles_per_cell", float64(m.NumGC-r.mem0.NumGC)/float64(cells))
	}
	return wall
}

func (r *rep) layer(name string, v float64) {
	if r.res.Layer == nil {
		r.res.Layer = map[string]float64{}
	}
	r.res.Layer[name] = v
}

func (r *rep) sample(kind string, ms float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.res.Samples == nil {
		r.res.Samples = map[string][]float64{}
	}
	r.res.Samples[kind] = append(r.res.Samples[kind], ms)
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// span is one timed interval around a call into the program. Spans of
// one operation share Trace; Parent names the span that caused it.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Trace  int     `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// spanLog keeps a traced repetition's spans in memory until it ends.
// A nil *spanLog records nothing, so untraced code paths pay nothing.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// add records a finished span and returns its ID (0 when not
// recording).
func (l *spanLog) add(name string, trace, parent int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: msOf(start.Sub(l.epoch)), End: msOf(end.Sub(l.epoch)),
	})
	return id
}

// begin opens a span that starts now; end closes it. Children can name
// it as their parent before it ends.
func (l *spanLog) begin(name string, trace, parent int) int {
	now := time.Now()
	return l.add(name, trace, parent, now, now)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = msOf(time.Since(l.epoch))
}

// write stores the spans as JSON under dir.
func (l *spanLog) write(dir, workload string, seed int64) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("spans-%s-%d-%d.json", workload, seed, os.Getpid())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// runChild executes one repetition of a workload in this process and
// prints its repResult as JSON on standard output.
func runChild(mode, workload string, seed int64, spawnNs int64, workdir string) int {
	r := &rep{mode: mode, seed: seed, spawn: time.Unix(0, spawnNs), workdir: workdir}
	if r.traced() {
		r.spans = &spanLog{epoch: time.Now()}
	}
	w, ok := workloadByName(workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	w.run(r)
	if err := r.spans.write(workdir, workload, seed); err != nil {
		r.fail("write spans: %v", err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(r.res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
