package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"github.com/eurosys23/ice/internal/harness"
)

// runRange re-runs a runner restricted to the cells of r and returns
// the sink payloads in index order — what a worker daemon does for
// POST /internal/cells, minus the HTTP transport.
func runRange(run Runner, o Options, r harness.Range) ([][]byte, error) {
	collected := make([][]byte, r.Len())
	o.Hooks = harness.ExecHooks{
		Range: &r,
		Sink: func(i int, b []byte) {
			if i >= r.From && i < r.To {
				collected[i-r.From] = append([]byte(nil), b...)
			}
		},
	}
	if _, _, err := run.Run(o); err != nil && !errors.Is(err, harness.ErrRangePartial) {
		return nil, err
	}
	for k, b := range collected {
		if b == nil {
			return nil, fmt.Errorf("cell %d produced no payload", r.From+k)
		}
	}
	return collected, nil
}

// TestRunnersShardLoopback proves every registered runner's cell type
// survives the sharding wire: cells [1,n) computed by a range-restricted
// re-run (the path a worker daemon executes, minus HTTP) and fed back
// through Hooks.Prefill — the same unmarshal-and-merge a remote
// LeaseQueue.Complete crosses — must render and marshal
// byte-identically to the plain local run. A runner whose per-cell
// result loses data through JSON — unexported fields, non-nil
// interfaces — fails here.
func TestRunnersShardLoopback(t *testing.T) {
	for _, run := range Registry() {
		run := run
		t.Run(run.ID, func(t *testing.T) {
			t.Parallel()
			base := Options{Fast: true, Workers: 2}
			// The local run's Sink counts the matrix.
			local := base
			n := 0
			local.Hooks.Sink = func(int, []byte) { n++ }
			render1, data1, err := run.Run(local)
			if err != nil {
				t.Fatal(err)
			}
			text1 := render1()
			json1, err := json.Marshal(data1)
			if err != nil {
				t.Fatal(err)
			}

			if n < 2 {
				t.Fatalf("sink saw %d cells, want a matrix of at least 2", n)
			}
			// Compute every cell but the first (cell 0 alone may record a
			// trace) out of process.
			payloads, err := runRange(run, base, harness.Range{From: 1, To: n})
			if err != nil {
				t.Fatal(err)
			}
			merged := base
			merged.Hooks.Prefill = make(map[int][]byte, len(payloads))
			for k, b := range payloads {
				merged.Hooks.Prefill[1+k] = b
			}
			// Merged cells report no execution time; only cell 0 runs.
			executed := 0
			merged.Progress = func(p harness.Progress) {
				if p.CellTime > 0 {
					executed++
				}
			}
			render2, data2, err := run.Run(merged)
			if err != nil {
				t.Fatal(err)
			}
			if executed != 1 {
				t.Fatalf("merged run executed %d cells, want only cell 0", executed)
			}
			json2, err := json.Marshal(data2)
			if err != nil {
				t.Fatal(err)
			}
			if string(json1) != string(json2) {
				t.Errorf("merged run marshals differently\nlocal:  %.300s\nmerged: %.300s", json1, json2)
			}
			if text2 := render2(); text1 != text2 {
				t.Errorf("merged run renders differently\nlocal:\n%s\nmerged:\n%s", text1, text2)
			}
		})
	}
}
