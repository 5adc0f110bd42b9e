package mm

import (
	"testing"
)

// TestByPIDCompactsDeadEntries pins the fix for the dead-index leak:
// freePage used to leave Dead page IDs in byPID until ExitProcess, so a
// long-lived process with allocation churn (GC loops, cache turnover)
// grew its index — and every PagesOf / ReclaimProcess scan — without
// bound. The amortised compaction must keep the index within a constant
// factor of the live population.
func TestByPIDCompactsDeadEntries(t *testing.T) {
	_, m := newTestManager(7)
	const pid, uid = 42, 10042
	ids, _ := m.Map(pid, uid, AnonJava, 512)
	// Churn far more pages than the index may retain: free one, map one,
	// keeping the live population constant at 512.
	for i := 0; i < 20000; i++ {
		slot := i % len(ids)
		m.FreePagesOf(ids[slot : slot+1])
		id, _ := m.MapOne(pid, uid, AnonJava)
		ids[slot] = id
	}
	live := 0
	for _, id := range m.byPID[pid] {
		if m.arena[id].state != Dead {
			live++
		}
	}
	if live != 512 {
		t.Fatalf("live pages in index = %d, want 512", live)
	}
	if got, bound := len(m.byPID[pid]), 2*live+compactMinLen; got > bound {
		t.Fatalf("byPID index holds %d entries for %d live pages (bound %d): dead entries leak", got, live, bound)
	}
	// Exit must still release every slot the process ever held, dead
	// tombstones included, exactly once.
	m.ExitProcess(pid)
	if _, ok := m.byPID[pid]; ok {
		t.Fatal("byPID entry survived ExitProcess")
	}
	if _, ok := m.deadByPID[pid]; ok {
		t.Fatal("deadByPID entry survived ExitProcess")
	}
}

// TestLRUPushRemoveNoAllocs pins the intrusive LRU hot path at zero
// allocations per operation.
func TestLRUPushRemoveNoAllocs(t *testing.T) {
	_, m := newTestManager(3)
	ids, _ := m.Map(1, 1, AnonJava, 64)
	id := ids[0]
	allocs := testing.AllocsPerRun(1000, func() {
		m.addToLRU(id, lInactiveAnon)
		m.addToLRU(id, lActiveAnon)
	})
	if allocs != 0 {
		t.Fatalf("LRU push/remove allocated %.1f objects per run, want 0", allocs)
	}
}

// TestKswapdStepNoAllocs pins one background-reclaim quantum at zero
// steady-state allocations. The loop keeps memory pressure on by
// refaulting a batch of evicted pages between steps, so every measured
// step runs the full scan/evict/store machinery.
func TestKswapdStepNoAllocs(t *testing.T) {
	_, m := newTestManager(5)
	const pid, uid = 9, 10009
	ids, _ := m.Map(pid, uid, AnonJava, 3700)
	scratch := make([]PageID, 0, 64)
	refaultSome := func() {
		scratch = scratch[:0]
		for _, id := range ids {
			if m.arena[id].state == Evicted {
				scratch = append(scratch, id)
				if len(scratch) == cap(scratch) {
					break
				}
			}
		}
		if len(scratch) > 0 {
			m.Touch(pid, scratch)
		}
	}
	// Warm up: drive a few full step+refault cycles so per-UID counters,
	// series buckets and scratch state reach steady shape.
	for i := 0; i < 8; i++ {
		m.KswapdStep()
		refaultSome()
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.KswapdStep()
		refaultSome()
	})
	if allocs != 0 {
		t.Fatalf("kswapd step allocated %.1f objects per run, want 0", allocs)
	}
}

// TestArenaSizedOnce pins the page arena's one-off allocation: New sizes
// it from the configuration (physical pages plus the ZRAM partition), and
// mapping up to that many pages — reclaim included, since the test
// manager overflows its RAM long before — never moves or regrows it.
func TestArenaSizedOnce(t *testing.T) {
	_, m := newTestManager(11)
	want := m.cfg.TotalPages + m.z.Config().CapacityPages
	if cap(m.arena) != want {
		t.Fatalf("initial arena capacity %d, want %d", cap(m.arena), want)
	}
	m.MapOne(1, 10001, AnonJava)
	base := &m.arena[0]
	classes := []Class{AnonJava, File, AnonNative}
	for i := 0; len(m.arena) < want; i++ {
		n := min(64, want-len(m.arena))
		m.Map(2+i%7, 10002+i%7, classes[i%len(classes)], n)
		if cap(m.arena) != want || &m.arena[0] != base {
			t.Fatalf("arena reallocated at %d of %d slots", len(m.arena), want)
		}
	}
	if m.stats.Total.Reclaimed == 0 {
		t.Fatal("mapping never entered reclaim; the test no longer covers it")
	}
}
