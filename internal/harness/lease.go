package harness

// lease.go is the harness's one dispatch path. Every MapContext run
// puts the indices it must execute on a LeaseQueue: a deque of
// contiguous cell-range chunks that every executor pulls from when it
// finishes its previous chunk. The local pool drains it one cell per
// chunk; under StealConfig the chunks grow to ChunkCells and remote
// lease loops pull from the same deque. A slow or busy executor simply
// stops pulling, so stragglers shed load without any replanning; a
// failed remote lease is requeued at the front of the deque and the
// next puller (possibly the local pool) runs it. Results merge by
// matrix index, so the output is byte-identical to a single-process
// run at any executor count, join order, or failure pattern.

import (
	"context"
	"sync"
)

// defaultStealChunks is how many chunks the matrix is split into when
// StealConfig.ChunkCells is unset: enough granularity that a handful of
// executors keep pulling, coarse enough that per-chunk dispatch
// overhead stays negligible.
const defaultStealChunks = 16

// StealConfig opens a run's LeaseQueue to remote executors
// (ExecHooks.Steal). The harness splits the queued index space into
// contiguous chunks; the local pool leases chunks like any other
// executor, and Run is started on its own goroutine to feed remote
// executors from the same queue.
type StealConfig struct {
	// ChunkCells caps how many cells one lease covers. <=0 splits the
	// index space into about defaultStealChunks chunks.
	ChunkCells int
	// Run, when non-nil, is started on its own goroutine with the run's
	// LeaseQueue after chunks are built. It typically spawns one lease
	// loop per remote executor (Lease → execute remotely → Complete,
	// Requeue on failure) and returns when the queue reports drained.
	// MapContext does not wait for Run to return: once the run is over
	// every queue operation is a safe no-op, so a straggling loop
	// cannot touch the merged results.
	Run func(ctx context.Context, q *LeaseQueue)
}

// LeaseQueue is the shared chunk deque of one run. The local pool and
// remote lease loops pull from it concurrently:
//
//   - Lease hands the next stealable chunk to a remote executor,
//     blocking while the deque is empty but an outstanding remote
//     lease could still requeue. It returns false when no chunk can
//     ever appear again — the loop's signal to exit.
//   - Complete merges a leased chunk's per-cell payloads back into the
//     run (matrix order, so merged bytes are position-independent).
//     Garbage payloads requeue the chunk instead, and the cells re-run
//     locally or on the next puller — deterministic seeds make the
//     re-run byte-identical to what the remote should have produced.
//   - Requeue returns a chunk whose remote dispatch failed to the
//     front of the deque.
//
// Chunks containing cell 0 are pinned to the local pool: cell 0 is the
// only cell that may record a trace, and trace buffers cannot cross
// the payload wire.
//
// Every successful Lease must be resolved by exactly one Complete or
// Requeue call. All methods are safe for concurrent use.
type LeaseQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	pinned  []Range // local-only chunks (hold cell 0)
	pending []Range // stealable chunks; requeues return to the front

	outLocal  int // chunks leased by the local pool, unresolved
	outRemote int // chunks leased via Lease, unresolved

	cancelled bool
	done      bool
	drained   chan struct{}

	// merge merges one remotely computed chunk (one payload per cell,
	// in index order) into the run's output; it reports false on any
	// malformed payload without writing. Called under mu, which
	// serialises remote merges against queue shutdown.
	merge func(r Range, payloads [][]byte) bool
}

// newLeaseQueue chunks the ascending index list into contiguous ranges
// of at most chunkCells cells each (<=0 splits it into about
// defaultStealChunks chunks). Non-contiguous index lists (a resumed
// job's prefill leaves gaps) produce one chunk sequence per contiguous
// run.
func newLeaseQueue(local []int, chunkCells int, merge func(Range, [][]byte) bool) *LeaseQueue {
	q := &LeaseQueue{drained: make(chan struct{}), merge: merge}
	q.cond = sync.NewCond(&q.mu)
	if chunkCells <= 0 {
		chunkCells = (len(local) + defaultStealChunks - 1) / defaultStealChunks
	}
	if chunkCells < 1 {
		chunkCells = 1
	}
	for k := 0; k < len(local); {
		from := local[k]
		to := from + 1
		k++
		for k < len(local) && local[k] == to && to-from < chunkCells {
			to++
			k++
		}
		r := Range{From: from, To: to}
		if r.From == 0 {
			q.pinned = append(q.pinned, r)
		} else {
			q.pending = append(q.pending, r)
		}
	}
	if len(q.pinned) == 0 && len(q.pending) == 0 {
		q.done = true
		close(q.drained)
	}
	return q
}

// Lease pulls the next stealable chunk for a remote executor. It
// blocks while the deque is empty but an outstanding remote lease
// could still requeue; false means the queue is drained (or the run
// cancelled) and no chunk will ever be available again.
func (q *LeaseQueue) Lease() (Range, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.cancelled {
			return Range{}, false
		}
		if len(q.pending) > 0 {
			r := q.pending[0]
			q.pending = q.pending[1:]
			q.outRemote++
			return r, true
		}
		// Pinned chunks and local leases never re-enter the stealable
		// deque, so once no remote lease is outstanding nothing can.
		if q.outRemote == 0 {
			return Range{}, false
		}
		q.cond.Wait()
	}
}

// Complete resolves a remote lease with its per-cell payloads (one per
// index of the range, in order) and merges them into the run. False
// means the payloads were rejected — wrong count, or any byte that
// does not unmarshal — and the chunk was requeued for someone else;
// the caller should treat the executor as unhealthy.
func (q *LeaseQueue) Complete(r Range, payloads [][]byte) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.outRemote--
	if q.cancelled {
		q.cond.Broadcast()
		return false
	}
	if !q.merge(r, payloads) {
		q.pending = append([]Range{r}, q.pending...)
		q.cond.Broadcast()
		return false
	}
	q.checkDrainedLocked()
	q.cond.Broadcast()
	return true
}

// Requeue resolves a failed remote lease by returning its chunk to the
// front of the deque.
func (q *LeaseQueue) Requeue(r Range) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.outRemote--
	if !q.cancelled {
		q.pending = append([]Range{r}, q.pending...)
	}
	q.cond.Broadcast()
}

// Drained is closed when every chunk has been resolved (or the run
// cancelled) — the dispatcher's signal that the job is over.
func (q *LeaseQueue) Drained() <-chan struct{} { return q.drained }

// tryLeaseLocal claims the next chunk for the local pool without
// blocking, preferring pinned chunks (only the local pool may run
// them). When it claims nothing, wait reports whether an outstanding
// remote lease could still requeue a chunk (call waitLocal, then
// retry); otherwise the local pool is done.
func (q *LeaseQueue) tryLeaseLocal() (r Range, ok, wait bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	switch {
	case q.cancelled:
		return Range{}, false, false
	case len(q.pinned) > 0:
		r, q.pinned = q.pinned[0], q.pinned[1:]
	case len(q.pending) > 0:
		r, q.pending = q.pending[0], q.pending[1:]
	default:
		return Range{}, false, q.outRemote > 0
	}
	q.outLocal++
	return r, true, false
}

// waitLocal blocks until a chunk is leasable, no remote lease is
// outstanding, or the run is cancelled.
func (q *LeaseQueue) waitLocal() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.cancelled && len(q.pinned) == 0 && len(q.pending) == 0 && q.outRemote > 0 {
		q.cond.Wait()
	}
}

// resolveLocal resolves one local lease (local execution cannot fail —
// a panicking cell still completes, as a *CellError).
func (q *LeaseQueue) resolveLocal() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.outLocal--
	q.checkDrainedLocked()
	q.cond.Broadcast()
}

// cancelAll wakes every waiter and turns all further queue operations
// into no-ops. Called on context cancellation and, as a barrier, when
// the run's local pool finishes: merge runs under mu, so after
// cancelAll returns no remote merge is in flight and none can start —
// which is what lets MapContext return without waiting for Run.
func (q *LeaseQueue) cancelAll() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.cancelled = true
	q.checkDrainedLocked()
	q.cond.Broadcast()
}

func (q *LeaseQueue) checkDrainedLocked() {
	if q.done {
		return
	}
	empty := len(q.pinned) == 0 && len(q.pending) == 0 && q.outLocal == 0 && q.outRemote == 0
	if empty || q.cancelled {
		q.done = true
		close(q.drained)
	}
}

// drain is the run's local pool: workers goroutines lease chunks from
// q alongside any remote lease loops and execute their cells in index
// order. Each worker acquires its execution budgets before it claims a
// cell, so a worker abandoned on cancellation has claimed nothing and,
// with one-cell chunks, the executed cells form a prefix of the queued
// indices. No worker holds a budget while it waits for an outstanding
// remote lease to resolve. drain returns when every chunk is resolved
// or the run is cancelled.
func drain[T any](ctx context.Context, cfg Config, workers int, q *LeaseQueue, stamped []Cell, out []T, tr *tracker, fn func(Cell) T) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r Range // the unexecuted rest of this worker's lease
			for {
				if ctx.Err() != nil || !acquire(ctx, cfg) {
					return // abandoned; cancelAll runs via AfterFunc
				}
				if r.Len() == 0 {
					var ok, wait bool
					if r, ok, wait = q.tryLeaseLocal(); !ok {
						release(cfg)
						if !wait {
							return
						}
						q.waitLocal()
						continue
					}
				}
				c := stamped[r.From]
				r.From++
				cerr, sunk, cellTime := computeCell(cfg, c, &out[c.Index], tr, fn)
				release(cfg)
				tr.complete(c, cellTime, cerr, sunk)
				if r.Len() == 0 {
					q.resolveLocal()
				}
			}
		}()
	}
	wg.Wait()
}

// acquire takes one unit of each execution budget: the global Slots
// first, then the per-principal CellQuota. Every CellQuota holder thus
// already holds a Slots unit, so the two semaphores cannot form a
// cycle. It reports false, holding nothing, when ctx ends first.
func acquire(ctx context.Context, cfg Config) bool {
	if cfg.Slots != nil {
		select {
		case cfg.Slots <- struct{}{}:
		case <-ctx.Done():
			return false
		}
	}
	if cfg.CellQuota != nil {
		select {
		case cfg.CellQuota <- struct{}{}:
		case <-ctx.Done():
			if cfg.Slots != nil {
				<-cfg.Slots
			}
			return false
		}
	}
	return true
}

// release returns the budgets acquire took.
func release(cfg Config) {
	if cfg.CellQuota != nil {
		<-cfg.CellQuota
	}
	if cfg.Slots != nil {
		<-cfg.Slots
	}
}
