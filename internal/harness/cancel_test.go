package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// prefixCase is one input of the completed-prefix cancellation tests:
// an optional Range and a set of prefilled indices (some outside the
// range or the matrix, which the harness must ignore).
type prefixCase struct {
	name    string
	rng     *Range
	prefill []int
}

// prefixCases scales the inputs to an n-cell matrix.
func prefixCases(n int) []prefixCase {
	rng := &Range{From: n / 8, To: n - n/8}
	prefill := []int{0, 1, 2, 5, n / 8, n/8 + 1, n / 2, n - 1, n + 3}
	return []prefixCase{
		{name: "plain"},
		{name: "range", rng: rng},
		{name: "prefill", prefill: prefill},
		{name: "range+prefill", rng: rng, prefill: prefill},
	}
}

// hooks builds the case's ExecHooks, prefilling from the reference
// results ref.
func (pc prefixCase) hooks(ref []int64) ExecHooks {
	h := ExecHooks{Range: pc.rng}
	if pc.prefill != nil {
		h.Prefill = map[int][]byte{}
		for _, i := range pc.prefill {
			v := int64(-1) // out-of-matrix index: any payload
			if i < len(ref) {
				v = ref[i]
			}
			h.Prefill[i], _ = json.Marshal(v)
		}
	}
	return h
}

// merged reports whether cell i is prefilled and inside the range, so
// the run merges it instead of executing it.
func (pc prefixCase) merged(i int) bool {
	return pc.inRange(i) && slices.Contains(pc.prefill, i)
}

func (pc prefixCase) inRange(i int) bool {
	return pc.rng == nil || (i >= pc.rng.From && i < pc.rng.To)
}

// queued lists the indices a run must execute, in order: in range and
// not prefilled.
func (pc prefixCase) queued(n int) []int {
	var q []int
	for i := 0; i < n; i++ {
		if pc.inRange(i) && !pc.merged(i) {
			q = append(q, i)
		}
	}
	return q
}

// checkPrefix asserts that a cancelled run of case pc executed a strict,
// non-empty prefix of its queued indices, that executed and merged
// slots hold the reference values, and that every other slot is zero.
func checkPrefix(t *testing.T, label string, pc prefixCase, executed []int, out, ref []int64) {
	t.Helper()
	queued := pc.queued(len(ref))
	done := len(executed)
	if done == 0 || done >= len(queued) {
		t.Fatalf("%s: %d of %d queued cells executed, expected a strict subset", label, done, len(queued))
	}
	// Cells are claimed in queue order and claiming stops on
	// cancellation, so the executed cells are exactly queued[:done].
	ran := map[int]bool{}
	for _, i := range executed {
		ran[i] = true
	}
	for _, i := range queued[:done] {
		if !ran[i] {
			t.Fatalf("%s: %d cells executed but queued index %d missing (not a prefix of %v)", label, done, i, queued)
		}
	}
	for i := range out {
		want := int64(0)
		if ran[i] || pc.merged(i) {
			want = ref[i]
		}
		if out[i] != want {
			t.Fatalf("%s: slot %d = %d, want %d", label, i, out[i], want)
		}
	}
}

// TestMapContextCancelMidMatrix cancels a running matrix at several
// worker counts, with and without Range and Prefill, and asserts the
// three cancellation guarantees: the executed cells form a prefix of
// the in-range, non-prefilled indices, the merged slots are
// byte-identical to an uncancelled run, and the error carries
// context.Canceled alongside zero cell errors.
func TestMapContextCancelMidMatrix(t *testing.T) {
	cells := Spec{Variants: []string{"a", "b"}, Rounds: 32}.Cells()
	serial, err := Map(Config{BaseSeed: 13, Workers: 1}, cells, func(c Cell) int64 {
		return c.Seed
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, pc := range prefixCases(len(cells)) {
		for _, workers := range []int{1, 2, 4, 8} {
			label := fmt.Sprintf("%s workers=%d", pc.name, workers)
			ctx, cancel := context.WithCancel(context.Background())
			var mu sync.Mutex
			var executed []int
			out, err := MapContext(ctx, Config{
				BaseSeed:  13,
				Workers:   workers,
				ExecHooks: pc.hooks(serial),
			}, cells, func(c Cell) int64 {
				mu.Lock()
				executed = append(executed, c.Index)
				if len(executed) == 10 {
					cancel()
				}
				mu.Unlock()
				time.Sleep(time.Millisecond) // give other workers time to observe
				return c.Seed
			})
			cancel()

			if err == nil {
				t.Fatalf("%s: no error after cancellation", label)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: error %v does not wrap context.Canceled", label, err)
			}
			if ces := Errs(err); len(ces) != 0 {
				t.Fatalf("%s: unexpected cell errors %v", label, ces)
			}
			if len(out) != len(cells) {
				t.Fatalf("%s: result length %d, want full matrix %d", label, len(out), len(cells))
			}
			checkPrefix(t, label, pc, executed, out, serial)
		}
	}
}

// TestMapContextPreCancelled: a context cancelled before the call runs
// zero cells and still returns a full-length zeroed result slice.
func TestMapContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	out, err := MapContext(ctx, Config{Workers: 4}, Spec{Rounds: 16}.Cells(), func(Cell) int {
		ran.Add(1)
		return 1
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d cells ran under a pre-cancelled context", n)
	}
	if len(out) != 16 {
		t.Fatalf("result length %d", len(out))
	}
}

// TestMapContextCancelNoGoroutineLeak: after a cancelled MapContext
// returns, every pool worker has exited.
func TestMapContextCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := MapContext(ctx, Config{Workers: 8}, Spec{Rounds: 64}.Cells(), func(c Cell) int {
			if c.Index == 5 {
				cancel()
			}
			return 0
		})
		cancel()
		if err == nil {
			t.Fatal("cancelled run returned nil error")
		}
	}
	// Allow any straggling runtime bookkeeping to settle.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestMapContextSlotsCancelKeepsPrefix is the regression test for the
// dispatch-order bug where a worker could claim a cell and then
// abandon it while waiting on an exhausted Slots budget under
// cancellation, letting a later-index cell that already held a slot
// complete — a hole in the documented completed-prefix invariant.
// Workers now acquire the slot before claiming, so every claimed cell
// runs and the executed cells form a prefix of the in-range,
// non-prefilled indices at any interleaving.
func TestMapContextSlotsCancelKeepsPrefix(t *testing.T) {
	cells := Spec{Rounds: 24}.Cells()
	serial, err := Map(Config{BaseSeed: 9, Workers: 1}, cells, func(c Cell) int64 { return c.Seed })
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range prefixCases(len(cells)) {
		for trial := 0; trial < 30; trial++ {
			label := fmt.Sprintf("%s trial %d", pc.name, trial)
			slots := make(chan struct{}, 1) // single-slot budget: workers contend
			ctx, cancel := context.WithCancel(context.Background())
			var mu sync.Mutex
			var executed []int
			out, err := MapContext(ctx, Config{
				BaseSeed: 9, Workers: 4, Slots: slots,
				ExecHooks: pc.hooks(serial),
			}, cells, func(c Cell) int64 {
				mu.Lock()
				executed = append(executed, c.Index)
				if len(executed) == 3 {
					cancel()
				}
				mu.Unlock()
				time.Sleep(time.Millisecond) // let other workers pile up on the slot
				return c.Seed
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: error %v does not wrap context.Canceled", label, err)
			}
			checkPrefix(t, label, pc, executed, out, serial)
			if len(slots) != 0 {
				t.Fatalf("%s: %d slots leaked", label, len(slots))
			}
		}
	}
}

// TestMapContextSlotsExhaustedCancelRunsNothing: with the whole budget
// held elsewhere, a cancelled run abandons before claiming any cell.
func TestMapContextSlotsExhaustedCancelRunsNothing(t *testing.T) {
	slots := make(chan struct{}, 1)
	slots <- struct{}{} // budget fully consumed by "another job"
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	var ran atomic.Int64
	_, err := MapContext(ctx, Config{Workers: 4, Slots: slots}, Spec{Rounds: 16}.Cells(), func(Cell) int {
		ran.Add(1)
		return 1
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d cells ran with the budget exhausted", n)
	}
	if len(slots) != 1 {
		t.Fatalf("foreign slot count %d, want the 1 we put in", len(slots))
	}
}

// TestMapContextPanicPlusCancel: cell errors and the context error are
// joined; Errs still extracts the cell errors.
func TestMapContextPanicPlusCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cells := Spec{Rounds: 32}.Cells()
	_, err := MapContext(ctx, Config{Workers: 2}, cells, func(c Cell) int {
		if c.Index == 3 {
			panic("boom")
		}
		if c.Index == 6 {
			cancel()
		}
		return 0
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	ces := Errs(err)
	if len(ces) != 1 || ces[0].Cell.Index != 3 {
		t.Fatalf("cell errors %v, want the single panic at index 3", ces)
	}
}

// TestMapContextCompleteRunHasNoError: an uncancelled MapContext behaves
// exactly like Map.
func TestMapContextCompleteRunHasNoError(t *testing.T) {
	out, err := MapContext(context.Background(), Config{BaseSeed: 5, Workers: 3},
		Spec{Rounds: 12}.Cells(), func(c Cell) int64 { return c.Seed })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v == 0 {
			t.Fatalf("slot %d empty", i)
		}
	}
}
