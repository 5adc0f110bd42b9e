package mm

import (
	"testing"
	"unsafe"

	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/storage"
	"github.com/eurosys23/ice/internal/zram"
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
		if m.slots[id].state() != Dead {
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
			if m.slots[id].state() == Evicted {
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
	if cap(m.arena) != want || cap(m.slots) != want {
		t.Fatalf("initial arena/slot capacity %d/%d, want %d", cap(m.arena), cap(m.slots), want)
	}
	m.MapOne(1, 10001, AnonJava)
	base, sbase := &m.arena[0], &m.slots[0]
	classes := []Class{AnonJava, File, AnonNative}
	for i := 0; len(m.arena) < want; i++ {
		n := min(64, want-len(m.arena))
		m.Map(2+i%7, 10002+i%7, classes[i%len(classes)], n)
		if cap(m.arena) != want || &m.arena[0] != base || &m.slots[0] != sbase {
			t.Fatalf("arena reallocated at %d of %d slots", len(m.arena), want)
		}
		if len(m.slots) != len(m.arena) {
			t.Fatalf("%d slots for %d arena pages", len(m.slots), len(m.arena))
		}
	}
	if m.stats.Total.Reclaimed == 0 {
		t.Fatal("mapping never entered reclaim; the test no longer covers it")
	}
}

// newP20Manager builds a manager sized like the P20 profile (6 GB RAM,
// 2 GB reserved, a 1 GB ZRAM partition, 24 MB high watermark; the
// device package cannot be imported here) and drives it through a
// launch-loop-like history: twenty apps launch in turn and map their
// working sets, each launch touches part of the previous app, heap churn
// frees pages in place, and every tenth launch the LMK kills an older
// app, whose arena slots stay Dead until later launches reuse them. It
// returns the manager and each app's mapped pages (pid i+1 at index i).
func newP20Manager(tb testing.TB) (*Manager, [][]PageID) {
	tb.Helper()
	const pagesPerMB = 16
	eng := sim.NewEngine(20)
	disk := storage.New(eng, storage.UFS21)
	z := zram.New(zram.DefaultConfig(1024 * pagesPerMB))
	cfg := DefaultConfig()
	cfg.TotalPages = 6 * 1024 * pagesPerMB
	cfg.ReservedPages = 2 * 1024 * pagesPerMB
	cfg.HighWatermark = 24 * pagesPerMB
	cfg.LowWatermark = cfg.HighWatermark * 5 / 6
	cfg.MinWatermark = cfg.HighWatermark * 2 / 3
	m := New(eng, cfg, z, disk)
	const apps = 20
	pages := make([][]PageID, apps)
	classes := []Class{AnonJava, AnonNative, File}
	for round := 0; round < 2; round++ {
		for i := 0; i < apps; i++ {
			pid, uid := i+1, 10001+i
			if pages[i] == nil {
				for j, n := range []int{2400, 1400, 1600} {
					ids, _ := m.Map(pid, uid, classes[j], n)
					pages[i] = append(pages[i], ids...)
				}
			} else {
				// A warm relaunch refaults what reclaim took.
				m.Touch(pid, pages[i])
			}
			m.SetForegroundUID(uid)
			if prev := pages[(i+apps-1)%apps]; prev != nil {
				m.Touch((i+apps-1)%apps+1, prev[:len(prev)/3])
			}
			// Heap churn: free every eighth page of this app in place.
			for j := 0; j < len(pages[i]); j += 8 {
				m.FreePagesOf(pages[i][j : j+1])
			}
			if i%10 == 9 {
				victim := (i + apps - 3) % apps
				m.ExitProcess(victim + 1)
				pages[victim] = nil
			}
		}
	}
	return m, pages
}

// BenchmarkRandomVictim measures one memcg-style victim probe (up to 16
// random arena draws) on a P20-sized arena of Resident, Evicted and Dead
// slots. The probe reads manager state only, so every iteration sees the
// same arena.
func BenchmarkRandomVictim(b *testing.B) {
	m, _ := newP20Manager(b)
	m.SetEvictionPolicy(aggressiveAll{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.randomVictim()
	}
}

// BenchmarkReclaimScan measures one 32-page reclaim episode (the
// direct-reclaim batch: demotion, memcg probes and LRU-tail scans) on the
// same P20-sized arena. Every 256 episodes an untimed refill refaults the
// pages those episodes evicted, so the resident population stays in
// steady state.
func BenchmarkReclaimScan(b *testing.B) {
	m, pages := newP20Manager(b)
	var evicted []PageID
	mark := m.evictClock
	refill := func() {
		for i, ids := range pages {
			evicted = evicted[:0]
			for _, id := range ids {
				if m.slots[id].state() == Evicted && m.arena[id].evictEpoch > mark {
					evicted = append(evicted, id)
				}
			}
			if len(evicted) > 0 {
				m.Touch(i+1, evicted)
			}
		}
		mark = m.evictClock
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 255 {
			b.StopTimer()
			refill()
			b.StartTimer()
		}
		m.reclaimPages(m.cfg.DirectReclaimBatch)
	}
}

// TestReclaimPagesNoAllocs pins a reclaim episode at zero allocations on
// the P20-sized arena, with both scan paths (memcg probe and LRU tail)
// and an aggressive policy in play.
func TestReclaimPagesNoAllocs(t *testing.T) {
	m, _ := newP20Manager(t)
	m.SetEvictionPolicy(aggressiveAll{})
	allocs := testing.AllocsPerRun(100, func() {
		m.reclaimPages(m.cfg.DirectReclaimBatch)
	})
	if allocs != 0 {
		t.Fatalf("reclaimPages allocated %.1f objects per run, want 0", allocs)
	}
}

// TestPageLayout pins the page struct at 40 bytes and the reclaim
// probe's per-page state at one byte.
func TestPageLayout(t *testing.T) {
	if got := unsafe.Sizeof(page{}); got != 40 {
		t.Fatalf("page is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(slot(0)); got != 1 {
		t.Fatalf("slot is %d bytes, want 1", got)
	}
	// Every state and list, lNone included, must round-trip through the
	// packed byte without disturbing its neighbours.
	for st := Resident; st <= Dead; st++ {
		for _, l := range []listID{lActiveAnon, lInactiveAnon, lActiveFile, lInactiveFile, lNone} {
			for _, ref := range []bool{false, true} {
				var s slot
				s.setReferenced(ref)
				s.setList(l)
				s.setState(st)
				if s.state() != st || s.list() != l || s.referenced() != ref {
					t.Fatalf("slot %08b: got (%v, %v, %v), want (%v, %v, %v)",
						s, s.state(), s.list(), s.referenced(), st, l, ref)
				}
			}
		}
	}
}
