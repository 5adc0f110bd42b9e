#!/usr/bin/env bash
# ci.sh — the repo's tier-1 gate plus hygiene checks:
#   gofmt (no unformatted files), go vet, build, the full test suite
#   under the race detector (the harness worker pool must stay
#   race-free at any -workers setting), short fuzzing searches of the
#   mm operation tapes (FuzzMemoryOps) and of the exposition parser the
#   fleet scrape runs on network bytes (FuzzParseProm), a flake guard
#   re-running the concurrency-heavy packages, a one-iteration smoke
#   run of the per-layer benchmarks, a benchmark gate (an A/B of the
#   root benchmarks against the parent commit on this host: each
#   benchmark's median cells/sec over 20 alternated runs must stay
#   within 10% of the parent's, and the change's medians are written
#   to BENCH_<n>.json, n derived from the highest committed snapshot),
#   a golden-file check on the Perfetto trace exporter, the scheme
#   byte-identity goldens (every registered policy scheme's fixed-seed
#   result hash), an icesimd smoke test (boot with a state dir,
#   health check, one cached job round-trip, the Prometheus exposition
#   on /metrics, SIGTERM drain, then a restart on the same state dir
#   that must serve the job byte-identical from the persistent result
#   store), a multi-node smoke test (coordinator + two workers steal a
#   job's chunks and must match the single-node bytes, including after
#   one worker is SIGKILLed mid-rotation, with the chunk requeued; a
#   worker booted AFTER the coordinator must join at runtime and lease
#   chunks from an already-running job; a fresh coordinator submitting
#   a fleet-warm spec must answer from a peer's cache with zero locally
#   simulated cells; /fleet/metrics must carry every peer's series
#   under peer labels and flip the dead worker's ice_peer_up gauge to
#   0), and an auth smoke test (a token-file daemon must 401
#   unauthenticated submits, round-trip an authenticated job, and 429 a
#   submit that overruns the principal's max-queued quota — while
#   health and metrics stay open). Every smoke reads the daemons'
#   instruments from GET /metrics, which serves only the Prometheus
#   text exposition, through one helper, prom_value.
set -euo pipefail
cd "$(dirname "$0")"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -race ./...
# The run above only replays FuzzMemoryOps's seed tapes; give the fuzzer
# a short open-ended search for tapes that break the accounting or the
# slot/LRU layout invariants.
go test -run '^$' -fuzz '^FuzzMemoryOps$' -fuzztime 15s ./internal/mm
# The fleet scrape parses every peer's /metrics body with obs.ParseProm:
# search for input that panics it or does not survive a re-render. Its
# seeds are whole expositions, so an interesting input takes long to
# minimise; a 1 s cap keeps the search searching.
go test -run '^$' -fuzz '^FuzzParseProm$' -fuzztime 10s -fuzzminimizetime 1s ./internal/obs

# Flake guard: the packages with real concurrency (the harness worker
# pool, the job manager and its sharding dispatcher) must pass twice in
# a row under the race detector. A scheduling-order dependence usually
# shows up on the second, cache-warm iteration.
go test -race -count=2 -timeout 20m ./internal/harness/ ./internal/service/
# Every run's ordering guarantees rest on the harness's one LeaseQueue
# pool, and Workers defaults to GOMAXPROCS, so -cpu varies both the pool
# size and the scheduler's interleavings.
go test -race -count=2 -cpu 1,4 ./internal/harness/

# The per-layer micro-benchmarks stay runnable: one iteration each, no
# timing claims.
go test -run '^$' -bench . -benchtime 1x ./internal/...

# Bench gate: an A/B of the root benchmarks against the parent commit,
# on this host, in this run, so it judges the code and not the machine.
# The parent is HEAD when tracked files differ from it, else HEAD^1 (a
# CI checkout of a commit); BENCH_*.json is left out of that test since
# this gate rewrites it. Both sides are `go test -c` binaries, and each
# benchmark runs one iteration on each side back to back, 20 times
# (about 4 minutes on 2 vCPUs). A single iteration spreads 7-18% on a
# shared VM, so fewer runs let an unchanged tree fail by chance. Per
# benchmark, the change's median cells/sec must be at least 0.9x the
# parent's; q1-q3 of both sides are printed beside the medians. The
# change's medians are snapshotted into BENCH_<n>.json, the perf
# trajectory record: n is one past the highest committed snapshot, so a
# re-run never bumps it.
benchroot=.bench_build
if git diff --quiet HEAD -- . ':(exclude)BENCH_*.json'; then
    benchbase=HEAD^1
else
    benchbase=HEAD
fi
git rev-parse -q --verify "$benchbase^{commit}" >/dev/null \
    || { echo "bench gate: no parent commit $benchbase (a shallow clone needs fetch-depth 2)" >&2; exit 1; }
rm -rf "$benchroot/parent"
mkdir -p "$benchroot/parent"
git archive "$benchbase" | tar -x -C "$benchroot/parent"
go test -c -o "$benchroot/new.test" .
(cd "$benchroot/parent" && go test -c -o ../parent.test .)
rm -rf "$benchroot/parent"
benchrows="$benchroot/rows"
: >"$benchrows"
# bench_rows SIDE POS — turn `go test -bench` output into "side position
# bench metric value" rows, one per reported metric.
bench_rows() {
    awk -v side="$1" -v pos="$2" '/^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        for (i = 3; i < NF; i += 2) print side, pos, name, $(i+1), $i
    }'
}
# bench_one SIDE POS NAME — one iteration of one benchmark on one side.
bench_one() {
    "$benchroot/$1.test" -test.run '^$' -test.bench "^$3\$" -test.benchtime 1x -test.timeout 5m \
        | bench_rows "$1" "$2" >>"$benchrows"
}
benchnames=$("$benchroot/new.test" -test.list '^Benchmark')
for run in $(seq 1 20); do
    echo "bench gate: run $run/20 (parent $(git rev-parse --short "$benchbase") vs this tree)"
    pos=0
    for name in $benchnames; do
        pos=$((pos + 1))
        # Each benchmark's parent and tree runs sit back to back, and
        # which goes first alternates, so drift on the host hits both.
        if [ $((run % 2)) -eq 1 ]; then
            bench_one parent "$pos" "$name"; bench_one new "$pos" "$name"
        else
            bench_one new "$pos" "$name"; bench_one parent "$pos" "$name"
        fi
    done
done

benchprev=$( (git ls-files 'BENCH_*.json' 2>/dev/null || ls BENCH_*.json 2>/dev/null) \
    | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$/\1/p' | sort -n | tail -1)
benchcur=$(( ${benchprev:-0} + 1 ))
# Sorted by side, benchmark position, metric and value, each group's
# samples arrive in order, so a quantile is an index into them (linear
# interpolation), and the benchmarks keep their source order.
sort -k1,1 -k2,2n -k4,4 -k5,5g "$benchrows" | awk -v json="BENCH_${benchcur}.json" '
BEGIN { CONVFMT = "%.10g" }  # medians of an even count are not whole
function q(p,   h, lo) {
    h = (n - 1) * p; lo = int(h)
    return lo + 1 < n ? v[lo] + (h - lo) * (v[lo+1] - v[lo]) : v[lo]
}
function flush() {
    if (n == 0) return
    key = side SUBSEP bench SUBSEP metric
    med[key] = q(0.5); q1[key] = q(0.25); q3[key] = q(0.75)
    if (side == "new" && !(bench in seen)) { seen[bench] = 1; order[++nb] = bench }
    n = 0
}
{
    if ($1 != side || $3 != bench || $4 != metric) { flush(); side = $1; bench = $3; metric = $4 }
    v[n++] = $5
}
function val(b, m) { k = "new" SUBSEP b SUBSEP m; return (k in med) ? med[k] : "null" }
END {
    flush()
    bad = 0
    printf "%-26s %28s %28s %7s\n", "cells/sec, median [q1-q3]", "parent", "this tree", "ratio"
    print "[" >json
    rows = 0
    for (i = 1; i <= nb; i++) {
        b = order[i]
        kn = "new" SUBSEP b SUBSEP "cells/sec"; kp = "parent" SUBSEP b SUBSEP "cells/sec"
        if (!(kn in med)) continue
        if (rows++) printf ",\n" >json
        printf "  {\"bench\": \"%s\", \"cells_per_sec\": %s, \"allocs_per_cell\": %s, \"bytes_per_cell\": %s, \"p50_cell_us\": %s, \"p99_cell_us\": %s}", \
            b, med[kn], val(b, "allocs/cell"), val(b, "bytes/cell"), val(b, "p50_cell_us"), val(b, "p99_cell_us") >json
        if (!(kp in med) || med[kp] <= 0) {
            printf "%-26s %28s %10.2f [%7.2f-%7.2f]   (new)\n", b, "-", med[kn], q1[kn], q3[kn]
            continue
        }
        ratio = med[kn] / med[kp]
        flag = ratio < 0.9 ? "  REGRESSION >10%" : ""
        printf "%-26s %10.2f [%7.2f-%7.2f] %10.2f [%7.2f-%7.2f] %7.3f%s\n", \
            b, med[kp], q1[kp], q3[kp], med[kn], q1[kn], q3[kn], ratio, flag
        if (ratio < 0.9) bad = 1
    }
    print "\n]" >json
    if (rows == 0) { print "bench gate: no benchmark reported cells/sec" >"/dev/stderr"; bad = 1 }
    exit bad
}' || { echo "bench gate: median cells/sec regressed >10% against $benchbase (or no rows)" >&2; exit 1; }
echo "bench snapshot: BENCH_${benchcur}.json (previous: ${benchprev:-none})"

# The Perfetto exporter's output is pinned byte-for-byte; a drift means
# the golden file needs a deliberate `go test ./internal/trace -update`.
go test -run=TestExportChromeGolden ./internal/trace/

# Scheme byte-identity: every registered policy scheme must reproduce its
# fixed-seed golden hash (internal/workload/golden_test.go). A drift here
# means a refactor changed simulation behaviour.
go test -run=TestSchemeGolden ./internal/workload/
# Tracing must not steer a run: traced and untraced results, instruments and event counts match.
go test -run=TestTracedRunMatchesUntraced ./internal/workload/

# icesimd smoke: boot on a random port with a persistent state dir,
# health-check, run one tiny job twice (the second answer must come from
# the result cache), SIGTERM and require a clean drain — then restart
# the daemon on the same state dir and require the identical job to be
# served byte-identical from the disk store without re-simulating.
# ICESIMD_SMOKE_DIR keeps the smoke daemons' logs in a known place
# (the GitHub workflow uploads them as artifacts on failure); default
# is a throwaway temp dir.
if [ -n "${ICESIMD_SMOKE_DIR:-}" ]; then
    smokedir=$ICESIMD_SMOKE_DIR
    mkdir -p "$smokedir"
else
    smokedir=$(mktemp -d)
    trap 'rm -rf "$smokedir"' EXIT
fi
go build -o "$smokedir/icesimd" ./cmd/icesimd

# boot_icesimd LOG [ARGS...] — start a daemon on a random port, wait for
# the definite port line, set $daemon (pid) and $addr (host:port).
boot_icesimd() {
    local log=$1; shift
    "$smokedir/icesimd" -addr 127.0.0.1:0 "$@" >"$log" &
    daemon=$!
    addr=""
    for _ in $(seq 1 50); do
        addr=$(sed -n 's/^icesimd listening on //p' "$log")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "icesimd ($log) never reported its port" >&2; cat "$log" >&2; exit 1; }
}

# prom_value ADDR SERIES [LABEL=VALUE] — fetch ADDR's /metrics once and
# print the value of the one sample whose series name is exactly SERIES
# and whose labels include LABEL="VALUE". Fails, with the exposition on
# stderr, unless exactly one sample matches.
prom_value() {
    local text
    text=$(curl -sf "http://$1/metrics") || { echo "GET http://$1/metrics failed" >&2; return 1; }
    awk -v series="$2" -v pair="${3:-}" '
    BEGIN {
        if (pair != "") {
            eq = index(pair, "=")
            want = "," substr(pair, 1, eq) "\"" substr(pair, eq + 1) "\","
        }
    }
    /^#/ || NF == 0 { next }
    {
        brace = index($0, "{")
        if (brace) {
            name = substr($0, 1, brace - 1)
            labels = substr($0, brace + 1); sub(/}[^}]*$/, "", labels)
        } else {
            name = $1; labels = ""
        }
        if (name != series || (pair != "" && !index("," labels ",", want))) next
        hits++; value = $NF
    }
    END {
        if (hits != 1) {
            printf "prom_value: %d samples of %s%s, want 1\n", hits, series, (pair == "" ? "" : "{" pair "}") >"/dev/stderr"
            exit 1
        }
        print value
    }' <<<"$text" || { echo "$text" >&2; return 1; }
}

# wait_done URL JOB — block until the job's NDJSON stream reports done.
wait_done() {
    curl -sfN "$1/jobs/$2/stream" | tail -1 | grep '"state":"done"' >/dev/null
}

boot_icesimd "$smokedir/log" -state-dir "$smokedir/state"

curl -sf "http://$addr/healthz" | grep true >/dev/null
spec='{"kind":"run","device":"Pixel3","scenario":"S-C","scheme":"Ice","duration_sec":2,"rounds":1,"seed":11}'
curl -sf -X POST "http://$addr/jobs" -d "$spec" >/dev/null
# The NDJSON stream ends when the job does.
wait_done "http://$addr" job-1
curl -sf "http://$addr/jobs/job-1/result" >"$smokedir/r1"
curl -sf -X POST "http://$addr/jobs" -d "$spec" | grep '"cached": true' >/dev/null
curl -sf "http://$addr/jobs/job-2/result" >"$smokedir/r2"
cmp -s "$smokedir/r1" "$smokedir/r2" || { echo "cached result not byte-identical" >&2; exit 1; }
[ "$(prom_value "$addr" ice_service_cache_hits_total)" = 1 ] \
    || { echo "cached submit not counted as exactly one cache hit" >&2; exit 1; }
curl -sf "http://$addr/healthz" | grep '"role": "node"' >/dev/null

# The exposition must serve typed series, and a completed job must have
# lit up the harness latency histogram and the folded sim.* aggregation.
curl -sf "http://$addr/metrics" >"$smokedir/prom"
grep -q '^# TYPE ice_service_cache_hits_total counter$' "$smokedir/prom" \
    || { echo "exposition missing typed cache counter" >&2; cat "$smokedir/prom" >&2; exit 1; }
grep -q '^# TYPE ice_harness_cell_us histogram$' "$smokedir/prom" \
    || { echo "exposition missing harness cell histogram" >&2; exit 1; }
grep -q '^ice_sim_mm_reclaim_pages_total' "$smokedir/prom" \
    || { echo "exposition missing folded sim series" >&2; exit 1; }

kill -TERM "$daemon"
wait "$daemon" || { echo "icesimd did not drain cleanly" >&2; cat "$smokedir/log" >&2; exit 1; }
grep -q 'drained, bye' "$smokedir/log"

# Second boot on the same state dir: the job must be a disk-cache hit.
boot_icesimd "$smokedir/log2" -state-dir "$smokedir/state"
[ "$(prom_value "$addr" ice_service_store_loaded_at_boot_total)" = 1 ] \
    || { echo "restarted daemon did not load the stored entry" >&2; exit 1; }
curl -sf -X POST "http://$addr/jobs" -d "$spec" | grep '"cached": true' >/dev/null \
    || { echo "restarted daemon re-simulated instead of hitting the disk store" >&2; exit 1; }
curl -sf "http://$addr/jobs/job-1/result" >"$smokedir/r3"
cmp -s "$smokedir/r1" "$smokedir/r3" || { echo "disk-store result not byte-identical across restart" >&2; exit 1; }
[ "$(prom_value "$addr" ice_service_store_disk_hits_total)" = 1 ] \
    || { echo "disk hit not counted" >&2; exit 1; }
kill -TERM "$daemon"
wait "$daemon" || { echo "icesimd (restart) did not drain cleanly" >&2; cat "$smokedir/log2" >&2; exit 1; }
grep -q 'drained, bye' "$smokedir/log2"

# Multi-node smoke: two workers plus a coordinator shard a job's cell
# matrix across three daemons. The sharded payload must be
# byte-identical to a single-node run of the same spec — and must stay
# identical when a worker is SIGKILLed out of the rotation, because a
# failed chunk is re-dispatched or re-run locally.
boot_icesimd "$smokedir/w1.log" -role worker
w1=$addr; w1pid=$daemon
boot_icesimd "$smokedir/w2.log" -role worker
w2=$addr; w2pid=$daemon
# The long health interval freezes the coordinator's post-boot view of
# the cluster, which makes the SIGKILL case below deterministic: the
# dead worker stays in rotation until a dispatch to it fails.
boot_icesimd "$smokedir/coord.log" -peers "$w1,$w2" -health-interval 10m
coord=$addr; coordpid=$daemon

# peer_healthy COORD WORKER — whether COORD has WORKER in rotation.
peer_healthy() {
    [ "$(prom_value "$1" ice_service_shard_peer_healthy peer="$2")" = 1 ]
}

# The boot-time probe must admit both workers.
for _ in $(seq 1 50); do
    { peer_healthy "$coord" "$w1" && peer_healthy "$coord" "$w2"; } 2>/dev/null && break
    sleep 0.1
done
for w in "$w1" "$w2"; do
    peer_healthy "$coord" "$w" || { echo "coordinator did not admit worker $w" >&2; exit 1; }
done

# Fleet scrape surface: the coordinator re-exposes both live workers'
# series under peer labels with ice_peer_up 1 each.
curl -sf "http://$coord/fleet/metrics" >"$smokedir/fleet"
for w in "$w1" "$w2"; do
    grep "^ice_peer_up{" "$smokedir/fleet" | grep "peer=\"$w\"" | grep ' 1$' >/dev/null \
        || { echo "fleet scrape missing ice_peer_up 1 for $w" >&2; cat "$smokedir/fleet" >&2; exit 1; }
    grep "^ice_service_cache_hits_total{peer=\"$w\"" "$smokedir/fleet" >/dev/null \
        || { echo "fleet scrape missing $w's series" >&2; cat "$smokedir/fleet" >&2; exit 1; }
done
# Exactly one # TYPE line per family after the merge.
[ "$(grep -c '^# TYPE ice_service_cache_hits_total ' "$smokedir/fleet")" -eq 1 ] \
    || { echo "fleet scrape duplicated family headers" >&2; exit 1; }

# A 2-axis experiment (bg-count × round), sharded vs single-node. The
# sharded run goes first: the fleet is cold, so the coordinator's
# peer-cache probe misses and the job genuinely shards. (Running w1's
# single-node copy first would let the coordinator answer from w1's
# store instead of simulating — that path gets its own leg below.)
specA='{"kind":"experiment","experiment":"table1","fast":true}'
curl -sf -X POST "http://$coord/jobs" -d "$specA" >/dev/null
wait_done "http://$coord" job-1
curl -sf "http://$coord/jobs/job-1/result" >"$smokedir/sharded"
curl -sf -X POST "http://$w1/jobs" -d "$specA" >/dev/null
wait_done "http://$w1" job-1
curl -sf "http://$w1/jobs/job-1/result" >"$smokedir/single"
cmp -s "$smokedir/single" "$smokedir/sharded" \
    || { echo "sharded experiment result not byte-identical to single-node" >&2; exit 1; }
[ "$(prom_value "$coord" ice_service_shard_remote_cells_total)" -gt 0 ] \
    || { echo "no cells executed remotely" >&2; exit 1; }
[ "$(prom_value "$coord" ice_service_shard_steals_total)" -gt 0 ] \
    || { echo "no chunks stolen by workers" >&2; exit 1; }

# Late-join steal: a coordinator with NO workers starts a job, then a
# worker boots afterwards, announces itself with -join, and must lease
# chunks from the already-running job — the runtime-membership half of
# the work-stealing dispatcher. Single local worker + one-cell chunks
# keep plenty of stealable work around while the late worker boots.
specC='{"kind":"run","device":"Pixel3","scenario":"S-C","scheme":"Ice","duration_sec":10,"rounds":16,"seed":47}'
curl -sf -X POST "http://$w1/jobs" -d "$specC" >/dev/null
wait_done "http://$w1" job-2
curl -sf "http://$w1/jobs/job-2/result" >"$smokedir/single3"
boot_icesimd "$smokedir/coord2.log" -role coordinator -workers 1 -shard-chunk-cells 1
coord2=$addr; coord2pid=$daemon
curl -sf -X POST "http://$coord2/jobs" -d "$specC" >/dev/null
boot_icesimd "$smokedir/w3.log" -role worker -join "$coord2" -join-interval 0.2s
w3=$addr; w3pid=$daemon
wait_done "http://$coord2" job-1
curl -sf "http://$coord2/jobs/job-1/result" >"$smokedir/latejoin"
cmp -s "$smokedir/single3" "$smokedir/latejoin" \
    || { echo "late-join result not byte-identical to single-node" >&2; exit 1; }
[ "$(prom_value "$coord2" ice_service_shard_steals_total)" -gt 0 ] \
    || { echo "late-joined worker leased no chunks" >&2; exit 1; }
[ "$(prom_value "$coord2" ice_service_fleet_peer_joins_total)" -ge 1 ] \
    || { echo "runtime join not counted" >&2; exit 1; }
# The worker deregisters on drain, and the coordinator counts the leave.
kill -TERM "$w3pid"
wait "$w3pid" || { echo "late-join worker did not drain cleanly" >&2; cat "$smokedir/w3.log" >&2; exit 1; }
[ "$(prom_value "$coord2" ice_service_fleet_peer_leaves_total)" -ge 1 ] \
    || { echo "worker leave not counted" >&2; exit 1; }
kill -TERM "$coord2pid"
wait "$coord2pid" || { echo "late-join coordinator did not drain cleanly" >&2; cat "$smokedir/coord2.log" >&2; exit 1; }

# Fleet-warm cache: a FRESH coordinator (empty memory and disk tiers)
# submitting the spec w1 already computed must answer from w1's store —
# verified end to end via the integrity header — as a cached job with
# zero locally simulated cells, byte-identical.
boot_icesimd "$smokedir/coord3.log" -peers "$w1"
coord3=$addr; coord3pid=$daemon
for _ in $(seq 1 50); do
    peer_healthy "$coord3" "$w1" 2>/dev/null && break
    sleep 0.1
done
peer_healthy "$coord3" "$w1" || { echo "fleet-warm coordinator did not admit $w1" >&2; exit 1; }
curl -sf -X POST "http://$coord3/jobs" -d "$specA" | grep '"cached": true' >/dev/null \
    || { echo "fleet-warm submit did not come back cached" >&2; exit 1; }
curl -sf "http://$coord3/jobs/job-1/result" >"$smokedir/peercached"
cmp -s "$smokedir/single" "$smokedir/peercached" \
    || { echo "peer-cache result not byte-identical to single-node" >&2; exit 1; }
[ "$(prom_value "$coord3" ice_service_cache_peer_hits_total)" -ge 1 ] \
    || { echo "peer-cache hit not counted" >&2; exit 1; }
[ "$(prom_value "$coord3" ice_harness_cell_us_count)" = 0 ] \
    || { echo "fleet-warm coordinator simulated cells locally" >&2; exit 1; }
kill -TERM "$coord3pid"
wait "$coord3pid" || { echo "warm-cache coordinator did not drain cleanly" >&2; cat "$smokedir/coord3.log" >&2; exit 1; }

# SIGKILL one worker, then shard a fresh job through the stale
# rotation: the dispatch to the dead worker must fail over without
# changing a byte of the result.
# The sharded run again goes first (cold fleet → the peer-cache probe
# misses and the job really dispatches into the stale rotation).
specB='{"kind":"run","device":"Pixel3","scenario":"S-C","scheme":"Ice","duration_sec":2,"rounds":6,"seed":23,"trace":true}'
kill -9 "$w2pid"
curl -sf -X POST "http://$coord/jobs" -d "$specB" >/dev/null
wait_done "http://$coord" job-2
curl -sf "http://$coord/jobs/job-2/result" >"$smokedir/sharded2"
curl -sf "http://$coord/jobs/job-2/trace" >"$smokedir/sharded2.trace"
curl -sf -X POST "http://$w1/jobs" -d "$specB" >/dev/null
wait_done "http://$w1" job-3
curl -sf "http://$w1/jobs/job-3/result" >"$smokedir/single2"
curl -sf "http://$w1/jobs/job-3/trace" >"$smokedir/single2.trace"
cmp -s "$smokedir/single2" "$smokedir/sharded2" \
    || { echo "result changed after SIGKILLed worker" >&2; exit 1; }
cmp -s "$smokedir/single2.trace" "$smokedir/sharded2.trace" \
    || { echo "trace changed after SIGKILLed worker" >&2; exit 1; }
[ "$(prom_value "$coord" ice_service_shard_peer_failures_total)" -ge 1 ] \
    || { echo "dead-worker dispatch failure not counted" >&2; exit 1; }
[ "$(prom_value "$coord" ice_service_shard_requeues_total)" -ge 1 ] \
    || { echo "dead worker's chunk not requeued" >&2; exit 1; }

# The dead worker flatlines on the fleet surface — ice_peer_up 0, the
# live worker still 1, and no scrape error.
curl -sf "http://$coord/fleet/metrics" >"$smokedir/fleet2"
grep "^ice_peer_up{" "$smokedir/fleet2" | grep "peer=\"$w2\"" | grep ' 0$' >/dev/null \
    || { echo "SIGKILLed worker not reported as ice_peer_up 0" >&2; cat "$smokedir/fleet2" >&2; exit 1; }
grep "^ice_peer_up{" "$smokedir/fleet2" | grep "peer=\"$w1\"" | grep ' 1$' >/dev/null \
    || { echo "live worker lost its ice_peer_up 1" >&2; cat "$smokedir/fleet2" >&2; exit 1; }

kill -TERM "$coordpid"
wait "$coordpid" || { echo "coordinator did not drain cleanly" >&2; cat "$smokedir/coord.log" >&2; exit 1; }
kill -TERM "$w1pid"
wait "$w1pid" || { echo "worker 1 did not drain cleanly" >&2; cat "$smokedir/w1.log" >&2; exit 1; }
wait "$w2pid" 2>/dev/null || true  # SIGKILLed above

# Auth smoke: a token-file daemon must reject unauthenticated and
# wrong-token submits with 401 (health and metrics stay open), serve an
# authenticated round-trip, and answer a submit that overruns the
# principal's max-queued quota with 429.
cat >"$smokedir/tokens" <<'EOF'
tok-alice alice weight=4
tok-bob   bob   weight=1 max-queued=1
EOF
boot_icesimd "$smokedir/auth.log" -auth-tokens "$smokedir/tokens" -max-jobs 1
authpid=$daemon

# status METHOD URL [CURL_ARGS...] — HTTP status code only.
status() {
    local method=$1 url=$2; shift 2
    curl -s -o /dev/null -w '%{http_code}' -X "$method" "$@" "$url"
}

[ "$(status POST "http://$addr/jobs" -d "$spec")" = 401 ] \
    || { echo "unauthenticated submit not rejected with 401" >&2; exit 1; }
[ "$(status POST "http://$addr/jobs" -H 'Authorization: Bearer tok-wrong' -d "$spec")" = 401 ] \
    || { echo "wrong-token submit not rejected with 401" >&2; exit 1; }
curl -sf "http://$addr/healthz" | grep true >/dev/null
[ "$(prom_value "$addr" ice_service_tenant_auth_failures_total)" = 2 ] \
    || { echo "the two rejected submits not counted as exactly two auth failures" >&2; exit 1; }

# Authenticated round-trip: submit as alice, stream to completion, read
# the result, and require the job view to carry the principal.
curl -sf -X POST "http://$addr/jobs" -H 'Authorization: Bearer tok-alice' -d "$spec" \
    | grep '"principal": "alice"' >/dev/null
wait_done "http://$addr" job-1
curl -sf "http://$addr/jobs/job-1/result" >"$smokedir/auth.r1"
cmp -s "$smokedir/r1" "$smokedir/auth.r1" \
    || { echo "authenticated result differs from the open-daemon bytes" >&2; exit 1; }

# Quota: with -max-jobs 1, bob's first long job runs, his second queues
# (max-queued=1), and the third must bounce with 429.
slow='{"kind":"run","device":"Pixel3","scenario":"S-C","scheme":"Ice","duration_sec":2,"rounds":12,"seed":31,"priority":"batch"}'
slow2='{"kind":"run","device":"Pixel3","scenario":"S-C","scheme":"Ice","duration_sec":2,"rounds":12,"seed":37,"priority":"batch"}'
slow3='{"kind":"run","device":"Pixel3","scenario":"S-C","scheme":"Ice","duration_sec":2,"rounds":12,"seed":41,"priority":"batch"}'
[ "$(status POST "http://$addr/jobs" -H 'Authorization: Bearer tok-bob' -d "$slow")" = 202 ] \
    || { echo "bob's first submit rejected" >&2; exit 1; }
[ "$(status POST "http://$addr/jobs" -H 'Authorization: Bearer tok-bob' -d "$slow2")" = 202 ] \
    || { echo "bob's second submit rejected" >&2; exit 1; }
[ "$(status POST "http://$addr/jobs" -H 'Authorization: Bearer tok-bob' -d "$slow3")" = 429 ] \
    || { echo "bob's over-quota submit not rejected with 429" >&2; exit 1; }
[ "$(prom_value "$addr" ice_service_tenant_rejected_total principal=bob)" = 1 ] \
    || { echo "quota rejection not attributed to bob" >&2; exit 1; }

kill -TERM "$authpid"
wait "$authpid" || { echo "auth daemon did not drain cleanly" >&2; cat "$smokedir/auth.log" >&2; exit 1; }

echo "ci.sh: all checks passed"
