package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/service"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/workload"
	"github.com/eurosys23/ice/internal/zram"
)

// The daemon-mixed request mix. Each closed-loop client sends 32 fresh
// specs (see coldSpecs), nearPerClient re-submissions of one of its
// nearMaxDist most recent specs and farPerClient re-submissions of a
// spec at least memEntries of its own specs back. The coordinator's
// memory LRU holds memEntries results, so a far reuse is always out of
// memory (its distance counts only this client's specs) and lands on
// the disk tier. A near reuse stays in memory unless the other client
// promotes more than memEntries - nearMaxDist specs during one of this
// client's jobs: all of its far reuses plus a handful of its cold
// completions stay below that.
const (
	daemonClients = 2
	nearPerClient = 20
	farPerClient  = 12
	memEntries    = 24
	nearMaxDist   = 2
	jobRounds     = 4
	jobSeconds    = 3
)

type opKind int

const (
	opCold opKind = iota
	opNear
	opFar
)

// jobOp is one planned request of a client.
type jobOp struct {
	kind opKind
	spec service.JobSpec
	dist int // reuse distance in the client's own spec stream
}

var bgCases = []string{"null", "apps", "cputester", "memtester"}

// coldSpecs lays out a client's fresh specs so that the work does not
// depend on the seed: every device × bg_case × scenario combination
// once, with the headline schemes balanced across them. shape orders
// them; seeds draws each spec's simulation seed.
func coldSpecs(shape, seeds *rand.Rand, client int) []service.JobSpec {
	schemes := policy.Headline()
	devices := []string{device.Pixel3.Name, device.P20.Name}
	scenarios := workload.Scenarios()
	var specs []service.JobSpec
	for d, dev := range devices {
		for b, bg := range bgCases {
			for sc, scenario := range scenarios {
				specs = append(specs, service.JobSpec{
					Kind:        service.KindRun,
					Device:      dev,
					Scenario:    scenario,
					Scheme:      schemes[(d+b+sc+2*client)%len(schemes)],
					BGCase:      bg,
					DurationSec: jobSeconds,
					Rounds:      jobRounds,
					Seed:        1 + seeds.Int63n(1<<40),
				})
			}
		}
	}
	shape.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// planClients generates every client's request sequence from seed.
// All clients draw the same order of combinations and the same reuse
// pattern, so the closed loops stay in step and the load does not
// depend on how one seed happens to interleave them; each client has
// its own schemes and simulation seeds, so no two clients share a spec.
func planClients(seed int64) [][]jobOp {
	seeds := rand.New(rand.NewSource(seed))
	plans := make([][]jobOp, daemonClients)
	for c := range plans {
		shape := rand.New(rand.NewSource(seed))
		fresh := coldSpecs(shape, seeds, c)
		left := [3]int{len(fresh), nearPerClient, farPerClient}
		var recent []service.JobSpec // this client's specs, most recent first
		for left[0]+left[1]+left[2] > 0 {
			var weight [3]int
			weight[opCold] = left[opCold]
			if len(recent) > 0 {
				weight[opNear] = left[opNear]
			}
			if len(recent) > memEntries {
				weight[opFar] = left[opFar]
			}
			pick := shape.Intn(weight[0] + weight[1] + weight[2])
			kind := opCold
			for pick >= weight[kind] {
				pick -= weight[kind]
				kind++
			}
			left[kind]--
			op := jobOp{kind: kind}
			switch kind {
			case opCold:
				op.spec, fresh = fresh[0], fresh[1:]
				recent = append([]service.JobSpec{op.spec}, recent...)
				plans[c] = append(plans[c], op)
				continue
			case opNear:
				op.dist = shape.Intn(min(nearMaxDist, len(recent)))
			case opFar:
				op.dist = memEntries + shape.Intn(len(recent)-memEntries)
			}
			op.spec = recent[op.dist]
			recent = append(append([]service.JobSpec{op.spec}, recent[:op.dist]...), recent[op.dist+1:]...)
			plans[c] = append(plans[c], op)
		}
	}
	return plans
}

// node is one in-process icesimd daemon on a loopback listener.
type node struct {
	m   *service.Manager
	srv *http.Server
	ln  net.Listener
	wg  sync.WaitGroup
}

func startNode(cfg service.Config) (*node, error) {
	m, err := service.OpenManager(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{m: m, srv: &http.Server{Handler: service.NewServer(m)}, ln: ln}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return n, nil
}

func (n *node) addr() string { return n.ln.Addr().String() }

// stop shuts the listener down, drains the manager's jobs and waits for
// the serving goroutine.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if derr := n.m.Drain(ctx); err == nil {
		err = derr
	}
	n.wg.Wait()
	return err
}

// runDaemon is the daemon-mixed workload: a coordinator and one seed
// worker, each a service.Manager with a one-cell budget, a disk store
// and its own loopback listener, driven over HTTP by closed-loop
// clients.
func runDaemon(r *rep) {
	plans := planClients(r.seed)
	dir, err := os.MkdirTemp(r.workdir, "daemon-")
	if err != nil {
		r.res.Attempted = 1
		r.fail("state dir: %v", err)
		return
	}
	defer os.RemoveAll(dir)

	var nodes []*node
	defer func() {
		for i := len(nodes) - 1; i >= 0; i-- {
			if err := nodes[i].stop(); err != nil {
				r.fail("stop daemon: %v", err)
			}
		}
	}()
	worker, err := startNode(service.Config{
		MaxWorkers: 1, StateDir: dir + "/worker", WorkerEndpoint: true, Role: "worker", Node: "worker",
	})
	if err != nil {
		r.res.Attempted = 1
		r.fail("start worker: %v", err)
		return
	}
	nodes = append(nodes, worker)
	coord, err := startNode(service.Config{
		MaxWorkers: 1, StateDir: dir + "/coordinator", Peers: []string{worker.addr()},
		CacheEntries: memEntries, ShardChunkCells: 1, Role: "coordinator", Node: "coordinator",
	})
	if err != nil {
		r.res.Attempted = 1
		r.fail("start coordinator: %v", err)
		return
	}
	nodes = append(nodes, coord)
	healthy := time.Now().Add(10 * time.Second)
	for coord.m.ProbePeers(context.Background()) < 1 {
		if time.Now().After(healthy) {
			r.res.Attempted = 1
			r.fail("worker %s never became healthy", worker.addr())
			return
		}
		time.Sleep(time.Millisecond)
	}
	if !r.ready() {
		return
	}

	base := "http://" + coord.addr()
	payloads := make([]map[string][]byte, len(plans))
	var wg sync.WaitGroup
	for c := range plans {
		payloads[c] = map[string][]byte{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runClient(r, base, c, plans[c], payloads[c])
		}(c)
	}
	wg.Wait()
	coldJobs := 0
	for _, p := range plans {
		r.res.Attempted += len(p)
		for _, op := range p {
			if op.kind == opCold {
				coldJobs++
			}
		}
	}
	wall := r.done(coldJobs * jobRounds)

	r.daemonOutputs(payloads)
	r.daemonCounters(plans, coord.m.Metrics(), worker.m.Metrics(), wall)
	if r.traced() {
		var specs []service.JobSpec
		var cfgs []workload.ScenarioConfig
		for _, op := range plans[0] {
			specs = append(specs, op.spec)
			if op.kind == opCold && len(cfgs) < 8 {
				cfgs = append(cfgs, runJobCell(op.spec))
			}
		}
		traceExtras(r, cfgs, specs)
	}
}

// runClient sends one client's planned jobs in a closed loop: each job
// is submitted, awaited on its progress stream when it simulates, and
// its result fetched before the next job is sent.
func runClient(r *rep, base string, client int, ops []jobOp, first map[string][]byte) {
	hc := &http.Client{Timeout: 2 * time.Minute}
	defer hc.CloseIdleConnections()
	for i, op := range ops {
		trace := 10000*(client+1) + i
		if err := runJob(r, hc, base, trace, op, first); err != nil {
			r.fail("client %d job %d (%s): %v", client, i, describeSpec(op.spec), err)
		}
	}
}

// runJob performs one job over HTTP and checks its payload.
func runJob(r *rep, hc *http.Client, base string, trace int, op jobOp, first map[string][]byte) error {
	body, err := json.Marshal(op.spec)
	if err != nil {
		return err
	}
	root := r.spans.begin("job", trace, 0)
	defer r.spans.end(root)
	t0 := time.Now()
	resp, err := hc.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var view service.JobView
	err = decodeJSON(resp, http.StatusAccepted, &view)
	tSubmit := time.Now()
	r.spans.add("POST /jobs", trace, root, t0, tSubmit)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	r.sample("submit", msOf(tSubmit.Sub(t0)))

	var queueWait float64
	if !view.Cached {
		ev, err := awaitJob(hc, base, view.ID)
		tDone := time.Now()
		r.spans.add("GET /jobs/{id}/stream", trace, root, tSubmit, tDone)
		if err != nil {
			return err
		}
		// Everything between submission and the terminal event that
		// the job did not spend running: admission, the peer-cache
		// lookup of a miss, and the wait for a running slot.
		queueWait = msOf(tDone.Sub(t0)) - ev.ElapsedMs
	}
	tResult := time.Now()
	resp, err = hc.Get(base + "/jobs/" + view.ID + "/result")
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	payload, err := readBody(resp, http.StatusOK)
	tEnd := time.Now()
	r.spans.add("GET /jobs/{id}/result", trace, root, tResult, tEnd)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	r.sample("result", msOf(tEnd.Sub(tResult)))

	key := service.CacheKey(op.spec, "")
	if view.Cached {
		r.sample("warm_job", msOf(tEnd.Sub(t0)))
		want, ok := first[key]
		switch {
		case op.kind == opCold:
			return errors.New("fresh spec was answered from cache")
		case !ok:
			return errors.New("reused spec has no earlier payload")
		case !bytes.Equal(payload, want):
			return errors.New("cached payload differs from the first payload for its spec")
		}
		return nil
	}
	r.sample("cold_job", msOf(tEnd.Sub(t0)))
	r.sample("queue_wait", max(queueWait, 0))
	first[key] = payload
	if op.kind != opCold {
		return errors.New("reused spec was simulated again instead of served from cache")
	}
	return nil
}

// awaitJob follows a job's NDJSON progress stream to its terminal
// event, which must report success.
func awaitJob(hc *http.Client, base, id string) (service.StreamEvent, error) {
	resp, err := hc.Get(base + "/jobs/" + id + "/stream")
	if err != nil {
		return service.StreamEvent{}, fmt.Errorf("stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.StreamEvent{}, fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev service.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return ev, fmt.Errorf("stream: %w", err)
		}
		switch ev.State {
		case service.StateDone:
			return ev, nil
		case service.StateFailed, service.StateCancelled:
			return ev, fmt.Errorf("job %s: %s", ev.State, ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return service.StreamEvent{}, fmt.Errorf("stream: %w", err)
	}
	return service.StreamEvent{}, errors.New("stream ended without a terminal event")
}

func readBody(resp *http.Response, want int) ([]byte, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func decodeJSON(resp *http.Response, want int, v interface{}) error {
	b, err := readBody(resp, want)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// daemonOutputs fingerprints the simulated payloads (in spec order, so
// the digest does not depend on which client finished first) and folds
// their per-cell counters into the exact per-cell counts.
func (r *rep) daemonOutputs(payloads []map[string][]byte) {
	all := map[string][]byte{}
	for _, p := range payloads {
		for k, v := range p {
			all[k] = v
		}
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	var cells []map[string]uint64
	for _, k := range keys {
		sum := sha256.Sum256(all[k])
		fmt.Fprintf(h, "%s %x\n", k, sum)
		var res service.RunResult
		if err := json.Unmarshal(all[k], &res); err != nil || len(res.Cells) != jobRounds {
			r.fail("payload for %s: %d cells, %v", k[:12], len(res.Cells), err)
			continue
		}
		for _, c := range res.Cells {
			cells = append(cells, c.Counters)
		}
	}
	r.res.Digest = hex.EncodeToString(h.Sum(nil))
	if len(cells) > 0 {
		r.res.Counts = perCellCounts(cells)
	}
}

// daemonCounters reads the service layers' own counters: which cache
// tier answered, how chunks were leased, and how busy the cell slots
// were. The tier counts must equal the planned mix.
func (r *rep) daemonCounters(plans [][]jobOp, coord, worker obs.Snapshot, wall time.Duration) {
	counter := func(s obs.Snapshot, name string) float64 {
		v, _ := s.Counter(name)
		return float64(v)
	}
	var planned [3]int
	var near, far []float64
	for _, p := range plans {
		for _, op := range p {
			planned[op.kind]++
			switch op.kind {
			case opNear:
				near = append(near, float64(op.dist))
			case opFar:
				far = append(far, float64(op.dist))
			}
		}
	}
	jobs := float64(planned[0] + planned[1] + planned[2])
	memHits := counter(coord, "service.cache.hits")
	diskHits := counter(coord, "service.store.disk_hits")
	if int(memHits) != planned[opNear] || int(diskHits) != planned[opFar] {
		r.fail("cache tiers answered %v memory and %v disk hits; the plan has %d near and %d far reuses",
			memHits, diskHits, planned[opNear], planned[opFar])
	}
	r.res.Mix = map[string]float64{
		"planned_cold_share":  float64(planned[opCold]) / jobs,
		"planned_near_share":  float64(planned[opNear]) / jobs,
		"planned_far_share":   float64(planned[opFar]) / jobs,
		"cold_share":          (jobs - memHits - diskHits) / jobs,
		"mem_hit_share":       memHits / jobs,
		"disk_hit_share":      diskHits / jobs,
		"near_distance_p50":   median(near),
		"near_distance_max":   percentile(near, 100),
		"far_distance_p50":    median(far),
		"far_distance_min":    percentile(far, 0),
		"memory_lru_entries":  memEntries,
		"distinct_specs":      float64(planned[opCold]),
		"rounds_per_cold_job": jobRounds,
	}
	r.layer("service.mem_hit_ratio", memHits/jobs)
	r.layer("service.disk_hit_ratio", diskHits/jobs)
	leases := counter(coord, "service.shard.leases")
	if leases > 0 {
		r.layer("service.steal_ratio", counter(coord, "service.shard.steals")/leases)
	} else {
		r.layer("service.steal_ratio", 0)
	}
	r.layer("service.lease_requeues", counter(coord, "service.shard.requeues"))
	var cellUs int64
	for _, s := range []obs.Snapshot{coord, worker} {
		if h, ok := s.Hist("harness.cell_us"); ok {
			cellUs += h.Sum
		}
	}
	// Two nodes with one cell slot each.
	r.layer("harness.parallel_efficiency", float64(cellUs)/1e6/(wall.Seconds()*2))
	for name, kind := range map[string]string{
		"service.submit_ms_p50":     "submit",
		"service.result_ms_p50":     "result",
		"service.queue_wait_ms_p50": "queue_wait",
	} {
		if xs := r.res.Samples[kind]; len(xs) > 0 {
			r.layer(name, percentile(xs, 50))
		}
	}
}

// runJobCell rebuilds round 0 of a run job as the daemon executes it,
// for the phase probe.
func runJobCell(spec service.JobSpec) workload.ScenarioConfig {
	profile, ok := device.ByName(spec.Device)
	if !ok {
		panic("unknown device " + spec.Device)
	}
	profile.ZramCodec = zram.DefaultCodec
	bc := map[string]workload.BGCase{
		"null": workload.BGNull, "apps": workload.BGApps,
		"cputester": workload.BGCputester, "memtester": workload.BGMemtester,
	}[spec.BGCase]
	sch, err := policy.ByName(spec.Scheme)
	if err != nil {
		panic(err)
	}
	return workload.ScenarioConfig{
		Scenario: spec.Scenario,
		Device:   profile,
		Scheme:   sch,
		BGCase:   bc,
		Duration: sim.Time(spec.DurationSec) * sim.Second,
		Seed: harness.DeriveSeed(spec.Seed, harness.Cell{
			Device: spec.Device, Scheme: spec.Scheme, Scenario: spec.Scenario, Variant: bc.String(),
		}),
	}
}

func describeSpec(s service.JobSpec) string {
	return fmt.Sprintf("%s/%s/%s/%s seed %d", s.Device, s.Scenario, s.Scheme, s.BGCase, s.Seed)
}
