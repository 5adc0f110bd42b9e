package harness

import (
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
)

// TestRangeRestrictsExecution: Config.Range runs only the in-range
// cells, reports ErrRangePartial, and the Sink receives exactly the
// in-range results as their JSON marshalling.
func TestRangeRestrictsExecution(t *testing.T) {
	cells := Spec{Variants: []string{"a", "b"}, Rounds: 6}.Cells() // 12 cells
	serial, err := Map(Config{BaseSeed: 3, Workers: 1}, cells, func(c Cell) int64 { return c.Seed })
	if err != nil {
		t.Fatal(err)
	}

	sunk := map[int][]byte{}
	var ran atomic.Int64
	cfg := Config{BaseSeed: 3, Workers: 2}
	cfg.Range = &Range{From: 4, To: 9}
	cfg.Sink = func(i int, b []byte) { sunk[i] = append([]byte(nil), b...) }
	out, err := Map(cfg, cells, func(c Cell) int64 {
		ran.Add(1)
		return c.Seed
	})
	if !errors.Is(err, ErrRangePartial) {
		t.Fatalf("error %v does not wrap ErrRangePartial", err)
	}
	if n := ran.Load(); n != 5 {
		t.Fatalf("%d cells ran, want 5", n)
	}
	for i := range out {
		if i >= 4 && i < 9 {
			if out[i] != serial[i] {
				t.Fatalf("slot %d = %d, want %d", i, out[i], serial[i])
			}
			want, _ := json.Marshal(serial[i])
			if string(sunk[i]) != string(want) {
				t.Fatalf("sink[%d] = %q, want %q", i, sunk[i], want)
			}
		} else {
			if out[i] != 0 {
				t.Fatalf("out-of-range slot %d holds %d", i, out[i])
			}
			if _, ok := sunk[i]; ok {
				t.Fatalf("sink saw out-of-range index %d", i)
			}
		}
	}
}

// TestRangeFullMatrixIsNotPartial: a Range covering the whole matrix
// behaves exactly like a plain run — no ErrRangePartial.
func TestRangeFullMatrixIsNotPartial(t *testing.T) {
	cells := Spec{Rounds: 8}.Cells()
	cfg := Config{BaseSeed: 1, Workers: 2}
	cfg.Range = &Range{From: 0, To: len(cells)}
	if _, err := Map(cfg, cells, func(c Cell) int64 { return c.Seed }); err != nil {
		t.Fatalf("full-range run errored: %v", err)
	}
}

// execRangeLocally simulates a remote worker: it re-runs the same
// matrix under a Range restriction and returns the Sink payloads in
// index order — the payloads a remote lease loop hands to
// LeaseQueue.Complete.
func execRangeLocally(cfg Config, cells []Cell, r Range, fn func(Cell) int64) ([][]byte, error) {
	collected := make([][]byte, r.Len())
	wcfg := cfg
	wcfg.ExecHooks = ExecHooks{
		Range: &r,
		Sink: func(i int, b []byte) {
			collected[i-r.From] = append([]byte(nil), b...)
		},
	}
	if _, err := Map(wcfg, cells, fn); err != nil && !errors.Is(err, ErrRangePartial) {
		return nil, err
	}
	return collected, nil
}
