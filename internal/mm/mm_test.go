package mm

import (
	"testing"
	"testing/quick"

	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/storage"
	"github.com/eurosys23/ice/internal/zram"
)

// newTestManager builds a small manager: 4096 pages total, 256 reserved,
// watermarks 128/106/85.
func newTestManager(seed int64) (*sim.Engine, *Manager) {
	eng := sim.NewEngine(seed)
	disk := storage.New(eng, storage.UFS21)
	z := zram.New(zram.DefaultConfig(1024))
	cfg := DefaultConfig()
	cfg.TotalPages = 4096
	cfg.ReservedPages = 256
	cfg.HighWatermark = 128
	cfg.LowWatermark = 106
	cfg.MinWatermark = 85
	// Disable the stochastic thrash coupling for deterministic unit tests.
	cfg.ThrashCoupling = 0
	return eng, New(eng, cfg, z, disk)
}

func TestMapMakesPagesResident(t *testing.T) {
	_, m := newTestManager(1)
	free0 := m.FreePages()
	ids, cost := m.Map(100, 10100, AnonJava, 50)
	if len(ids) != 50 {
		t.Fatalf("mapped %d pages", len(ids))
	}
	if cost.Stall != 0 || cost.BlockUntil != 0 {
		t.Fatalf("unexpected cost with plenty of memory: %+v", cost)
	}
	if m.FreePages() != free0-50 {
		t.Fatalf("free %d, want %d", m.FreePages(), free0-50)
	}
	if m.ResidentOf(100) != 50 {
		t.Fatalf("ResidentOf = %d", m.ResidentOf(100))
	}
	for _, id := range ids {
		info := m.Info(id)
		if info.State != Resident || info.Class != AnonJava || info.PID != 100 {
			t.Fatalf("bad page info %+v", info)
		}
	}
}

func TestWatermarkOrderingEnforced(t *testing.T) {
	eng := sim.NewEngine(1)
	disk := storage.New(eng, storage.UFS21)
	z := zram.New(zram.DefaultConfig(64))
	cfg := DefaultConfig()
	cfg.TotalPages = 1000
	cfg.HighWatermark = 10
	cfg.LowWatermark = 20 // inverted!
	cfg.MinWatermark = 5
	defer func() {
		if recover() == nil {
			t.Fatal("inverted watermarks did not panic")
		}
	}()
	New(eng, cfg, z, disk)
}

func TestKswapdWakesBelowLow(t *testing.T) {
	_, m := newTestManager(2)
	woken := false
	m.SetKswapdWaker(func() { woken = true })
	// Fill until free drops below low.
	m.Map(1, 10001, AnonNative, m.FreePages()-m.Config().LowWatermark+10)
	if !woken {
		t.Fatal("kswapd not woken below low watermark")
	}
	if !m.NeedKswapd() {
		t.Fatal("NeedKswapd false below low")
	}
}

func TestDirectReclaimBelowMin(t *testing.T) {
	_, m := newTestManager(3)
	m.Map(1, 10001, AnonNative, m.FreePages()-m.Config().MinWatermark-5)
	st0 := m.Stats()
	_, cost := m.Map(1, 10001, AnonNative, 20) // crosses min
	st := m.Stats()
	if st.DirectReclaimEpisodes <= st0.DirectReclaimEpisodes {
		t.Fatal("no direct reclaim below min watermark")
	}
	if cost.Stall <= 0 {
		t.Fatal("direct reclaim cost not charged to the allocator")
	}
}

func TestReclaimEvictsLRUOrder(t *testing.T) {
	_, m := newTestManager(4)
	cfg := m.Config()
	// Two batches: old then new; disable proportional scanning for strict
	// LRU this test.
	cfgCopy := cfg
	cfgCopy.MemcgScanFraction = 0
	m.cfg = cfgCopy

	old, _ := m.Map(1, 10001, AnonNative, 100)
	fresh, _ := m.Map(2, 10002, AnonNative, 100)
	res := m.reclaimPages(50)
	if res.reclaimed != 50 {
		t.Fatalf("reclaimed %d, want 50", res.reclaimed)
	}
	oldEvicted, freshEvicted := 0, 0
	for _, id := range old {
		if m.Info(id).State == Evicted {
			oldEvicted++
		}
	}
	for _, id := range fresh {
		if m.Info(id).State == Evicted {
			freshEvicted++
		}
	}
	if oldEvicted <= freshEvicted {
		t.Fatalf("LRU violated: old evicted %d, fresh evicted %d", oldEvicted, freshEvicted)
	}
}

func TestSecondChanceProtectsReferenced(t *testing.T) {
	_, m := newTestManager(5)
	cfgCopy := m.Config()
	cfgCopy.MemcgScanFraction = 0
	m.cfg = cfgCopy

	ids, _ := m.Map(1, 10001, AnonNative, 50)
	m.Touch(1, ids) // referenced
	m.Map(2, 10002, AnonNative, 50)
	res := m.reclaimPages(30)
	if res.reclaimed == 0 {
		t.Fatal("nothing reclaimed")
	}
	evictedReferenced := 0
	for _, id := range ids {
		if m.Info(id).State == Evicted {
			evictedReferenced++
		}
	}
	// Referenced pages get a second chance: the unreferenced fresh pages
	// should be evicted first.
	if evictedReferenced != 0 {
		t.Fatalf("%d referenced pages evicted despite second chance", evictedReferenced)
	}
}

func TestRefaultDetectedWithShadowEntry(t *testing.T) {
	_, m := newTestManager(6)
	ids, _ := m.Map(1, 10001, AnonJava, 10)
	if n := m.ReclaimProcess(1); n != 10 {
		t.Fatalf("ReclaimProcess evicted %d", n)
	}
	var events []RefaultEvent
	m.OnRefault(func(ev RefaultEvent) { events = append(events, ev) })
	cost := m.Touch(1, ids[:3])
	if len(events) != 3 {
		t.Fatalf("%d refault events, want 3", len(events))
	}
	if cost.Stall <= 0 {
		t.Fatal("refault cost zero")
	}
	for _, ev := range events {
		if ev.PID != 1 || ev.UID != 10001 || ev.Class != AnonJava {
			t.Fatalf("bad event %+v", ev)
		}
	}
	st := m.Stats()
	if st.Total.Refaulted != 3 {
		t.Fatalf("refault counter %d", st.Total.Refaulted)
	}
}

func TestRefaultDistanceGrowsWithInterveningEvictions(t *testing.T) {
	_, m := newTestManager(7)
	a, _ := m.Map(1, 10001, AnonJava, 1)
	m.ReclaimProcess(1)
	// Evict a second process's pages in between.
	m.Map(2, 10002, AnonJava, 20)
	m.ReclaimProcess(2)
	var got RefaultEvent
	m.OnRefault(func(ev RefaultEvent) { got = ev })
	m.Touch(1, a)
	if got.Distance != 20 {
		t.Fatalf("refault distance %d, want 20", got.Distance)
	}
}

func TestFGBGRefaultClassification(t *testing.T) {
	_, m := newTestManager(8)
	fg, _ := m.Map(1, 10001, AnonJava, 5)
	bg, _ := m.Map(2, 10002, AnonJava, 5)
	m.ReclaimProcess(1)
	m.ReclaimProcess(2)
	m.SetForegroundUID(10001)
	m.Touch(1, fg)
	m.Touch(2, bg)
	st := m.Stats()
	if st.RefaultFG != 5 || st.RefaultBG != 5 {
		t.Fatalf("FG/BG split %d/%d", st.RefaultFG, st.RefaultBG)
	}
	if st.BGRefaultShare() != 0.5 {
		t.Fatalf("BG share %v", st.BGRefaultShare())
	}
}

func TestFileRefaultBlocksOnDisk(t *testing.T) {
	eng, m := newTestManager(9)
	ids, _ := m.Map(1, 10001, File, 10)
	m.ReclaimProcess(1)
	cost := m.Touch(1, ids)
	if cost.BlockUntil <= eng.Now() {
		t.Fatal("file refault did not require I/O wait")
	}
}

func TestAnonRefaultServedFromZram(t *testing.T) {
	eng, m := newTestManager(10)
	ids, _ := m.Map(1, 10001, AnonNative, 10)
	m.ReclaimProcess(1)
	cost := m.Touch(1, ids)
	if cost.BlockUntil > eng.Now() {
		t.Fatal("anonymous refault should not block on flash")
	}
	if cost.Stall <= 0 {
		t.Fatal("decompression stall missing")
	}
}

func TestExitProcessFreesEverything(t *testing.T) {
	_, m := newTestManager(11)
	free0 := m.FreePages()
	ids, _ := m.Map(1, 10001, AnonJava, 40)
	m.ReclaimProcess(1) // some in zram now
	m.Map(1, 10001, File, 10)
	m.ExitProcess(1)
	if m.FreePages() != free0 {
		t.Fatalf("free %d after exit, want %d", m.FreePages(), free0)
	}
	if m.ResidentOf(1) != 0 || m.EvictedOf(1) != 0 {
		t.Fatal("pages survived process exit")
	}
	// Touching dead pages must be a safe no-op.
	if cost := m.Touch(1, ids); cost.Stall != 0 {
		t.Fatal("touching dead pages charged a cost")
	}
}

func TestTransientAllocationBalance(t *testing.T) {
	_, m := newTestManager(12)
	free0 := m.FreePages()
	m.AllocTransient(30)
	if m.FreePages() != free0-30 {
		t.Fatal("transient pages not deducted")
	}
	m.FreeTransient(30)
	if m.FreePages() != free0 {
		t.Fatal("transient pages not returned")
	}
}

func TestFreeTransientUnderflowPanics(t *testing.T) {
	_, m := newTestManager(13)
	defer func() {
		if recover() == nil {
			t.Fatal("FreeTransient underflow did not panic")
		}
	}()
	m.FreeTransient(1)
}

func TestPerProcessReclaimSkipsEvicted(t *testing.T) {
	_, m := newTestManager(14)
	m.Map(1, 10001, AnonJava, 20)
	first := m.ReclaimProcess(1)
	second := m.ReclaimProcess(1)
	if first != 20 || second != 0 {
		t.Fatalf("reclaim counts %d/%d", first, second)
	}
}

func TestEvictionPolicyProtect(t *testing.T) {
	_, m := newTestManager(15)
	cfgCopy := m.Config()
	cfgCopy.MemcgScanFraction = 0
	m.cfg = cfgCopy
	m.SetForegroundUID(10001)
	m.SetEvictionPolicy(protectFG{})

	fg, _ := m.Map(1, 10001, AnonNative, 60)
	m.Map(2, 10002, AnonNative, 60)
	m.reclaimPages(40)
	for _, id := range fg {
		if m.Info(id).State == Evicted {
			t.Fatal("protected foreground page was evicted")
		}
	}
}

type protectFG struct{}

func (protectFG) Name() string { return "protect-fg" }
func (protectFG) Protect(uid int, _ Class, fgUID int) bool {
	return uid == fgUID
}

func TestZramFullFallsBackToFile(t *testing.T) {
	eng := sim.NewEngine(16)
	disk := storage.New(eng, storage.UFS21)
	z := zram.New(zram.DefaultConfig(5)) // tiny
	cfg := DefaultConfig()
	cfg.TotalPages = 2048
	cfg.ReservedPages = 0
	cfg.HighWatermark = 64
	cfg.LowWatermark = 53
	cfg.MinWatermark = 42
	cfg.MemcgScanFraction = 0
	cfg.ThrashCoupling = 0
	m := New(eng, cfg, z, disk)

	m.Map(1, 10001, AnonNative, 100)
	m.Map(2, 10002, File, 100)
	res := m.reclaimPages(50)
	if res.reclaimed == 0 {
		t.Fatal("reclaim made no progress with full zram")
	}
	st := m.Stats()
	if st.ZramRejects == 0 {
		t.Fatal("no zram rejections recorded")
	}
	if st.ReclaimByClass[File] == 0 {
		t.Fatal("file pages were not used as fallback")
	}
}

func TestDirtyFileWriteback(t *testing.T) {
	_, m := newTestManager(17)
	// Force all file pages dirty.
	cfgCopy := m.Config()
	cfgCopy.DirtyFileFraction = 1.0
	m.cfg = cfgCopy
	m.Map(1, 10001, File, 30)
	m.ReclaimProcess(1)
	if m.Stats().WritebackPages != 30 {
		t.Fatalf("writeback pages %d, want 30", m.Stats().WritebackPages)
	}
	if m.disk.Stats().PagesWritten != 30 {
		t.Fatal("writeback did not reach the device")
	}
}

func TestPressureHookOnReclaimFailure(t *testing.T) {
	eng := sim.NewEngine(18)
	disk := storage.New(eng, storage.UFS21)
	z := zram.New(zram.DefaultConfig(1)) // nearly no swap space
	cfg := DefaultConfig()
	cfg.TotalPages = 256
	cfg.ReservedPages = 0
	cfg.HighWatermark = 32
	cfg.LowWatermark = 26
	cfg.MinWatermark = 21
	cfg.ThrashCoupling = 0
	m := New(eng, cfg, z, disk)

	fired := 0
	m.OnPressure(func() { fired++ })
	// Fill with referenced anon that can't go to zram: reclaim will fail.
	ids, _ := m.Map(1, 10001, AnonNative, 230)
	m.Touch(1, ids)
	m.Map(1, 10001, AnonNative, 20) // below min, direct reclaim fails
	if fired == 0 {
		t.Fatal("pressure hook not fired when reclaim failed")
	}
}

func TestSeriesBuckets(t *testing.T) {
	eng, m := newTestManager(19)
	ids, _ := m.Map(1, 10001, AnonJava, 10)
	m.ResetStats()
	m.ReclaimProcess(1)
	eng.RunFor(2 * sim.Second)
	eng.At(eng.Now(), func() { m.Touch(1, ids[:4]) })
	eng.Step()
	series := m.Series()
	if len(series) < 3 {
		t.Fatalf("series too short: %d", len(series))
	}
	if series[0].Reclaimed != 10 {
		t.Fatalf("second-0 reclaim %d", series[0].Reclaimed)
	}
	if series[2].Refaulted != 4 {
		t.Fatalf("second-2 refault %d", series[2].Refaulted)
	}
}

func TestAvailablePagesAtLeastOne(t *testing.T) {
	_, m := newTestManager(20)
	m.Map(1, 10001, AnonNative, m.FreePages()+100) // overcommit hard
	if m.AvailablePages() < 1 {
		t.Fatal("AvailablePages must stay positive for MDT's division")
	}
}

func TestPerUIDCounters(t *testing.T) {
	_, m := newTestManager(21)
	ids, _ := m.Map(1, 10001, AnonJava, 8)
	m.ReclaimProcess(1)
	m.Touch(1, ids)
	if got := m.PerUID(10001).Refaulted; got != 8 {
		t.Fatalf("per-UID refaults %d", got)
	}
	if got := m.PerUID(99999); got.Refaulted != 0 {
		t.Fatal("unknown UID should report zero")
	}
}

// Property: page accounting is conserved across arbitrary map / reclaim /
// touch / exit sequences: resident + free + zramFootprint + reserved ==
// total, and resident equals the number of pages in Resident state.
func TestPageConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		_, m := newTestManager(99)
		type procPages struct {
			ids []PageID
		}
		procs := map[int]*procPages{}
		nextPID := 1
		for _, op := range ops {
			pid := int(op%5) + 1
			if procs[pid] == nil {
				procs[pid] = &procPages{}
				if pid >= nextPID {
					nextPID = pid + 1
				}
			}
			p := procs[pid]
			switch (op / 8) % 4 {
			case 0:
				ids, _ := m.Map(pid, 10000+pid, Class(op%3), int(op%50)+1)
				p.ids = append(p.ids, ids...)
			case 1:
				m.ReclaimProcess(pid)
			case 2:
				if len(p.ids) > 0 {
					m.Touch(pid, p.ids[:len(p.ids)/2])
				}
			case 3:
				m.ExitProcess(pid)
				p.ids = nil
			}
			// Conservation check.
			free := m.FreePages()
			if free+m.ResidentPages()+m.zramFootprintForTest()+m.cfg.ReservedPages != m.cfg.TotalPages {
				return false
			}
			// LRU occupancy must equal resident count.
			lc := m.ListCounts()
			if lc[0]+lc[1]+lc[2]+lc[3] != m.ResidentPages() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// zramFootprintForTest exposes the zram share of physical memory.
func (m *Manager) zramFootprintForTest() int { return m.z.FootprintPages() }

// Property: a refault is only ever reported for a page that was previously
// reclaimed, and refaults never exceed reclaims.
func TestRefaultNeverExceedsReclaim(t *testing.T) {
	f := func(ops []uint8) bool {
		_, m := newTestManager(123)
		ids, _ := m.Map(1, 10001, AnonJava, 60)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				m.ReclaimProcess(1)
			case 1:
				m.Touch(1, ids[:int(op)%len(ids)])
			case 2:
				m.reclaimPages(int(op % 20))
			}
			st := m.Stats()
			if st.Total.Refaulted > st.Total.Reclaimed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestThrashMeterRate(t *testing.T) {
	eng, m := newTestManager(24)
	if m.ThrashRate() != 0 {
		t.Fatal("fresh meter should read zero")
	}
	for i := 0; i < 100; i++ {
		m.thrash.note(eng.Now(), m.cfg.ThrashWindow, 10)
	}
	if r := m.ThrashRate(); r < 40 || r > 60 {
		t.Fatalf("rate %v after 100 events in a 2s window, want ≈50", r)
	}
	// After the window passes the rate decays to zero.
	eng.RunFor(3 * m.cfg.ThrashWindow)
	if r := m.ThrashRate(); r != 0 {
		t.Fatalf("rate %v after idle window", r)
	}
}

// PeekThrashRate must read the rate without moving the meter: after an
// idle gap ThrashRate re-anchors the bucket grid at the caller's time,
// so an observer calling it would shift every later bucket boundary.
func TestPeekThrashRateLeavesMeter(t *testing.T) {
	var meters [3]thrashMeter
	var rates [3]float64
	for i := range meters {
		eng, m := newTestManager(26)
		m.thrash.note(eng.Now(), m.cfg.ThrashWindow, 10)
		eng.RunFor(3*m.cfg.ThrashWindow + 123*sim.Millisecond)
		switch i {
		case 1:
			rates[i] = m.PeekThrashRate()
		case 2:
			rates[i] = m.ThrashRate()
		}
		eng.RunFor(777 * sim.Millisecond)
		m.thrash.note(eng.Now(), m.cfg.ThrashWindow, 10)
		meters[i] = m.thrash
	}
	if rates[1] != rates[2] {
		t.Fatalf("PeekThrashRate %v, ThrashRate %v at the same instant", rates[1], rates[2])
	}
	if meters[1] != meters[0] {
		t.Fatalf("PeekThrashRate moved the meter: %+v, untouched %+v", meters[1], meters[0])
	}
	if meters[2] == meters[0] {
		t.Fatal("ThrashRate after an idle gap left the grid in place; the peek guards nothing")
	}
}

func TestThrashStallDisabled(t *testing.T) {
	_, m := newTestManager(25)
	// ThrashCoupling is zero in the test config.
	ids, _ := m.Map(1, 10001, AnonJava, 4)
	m.ReclaimProcess(1)
	m.Touch(1, ids)
	if m.thrashStall() != 0 {
		t.Fatal("thrash stall nonzero with coupling disabled")
	}
}
