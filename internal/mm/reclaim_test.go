package mm

import (
	"slices"
	"testing"
)

func TestPickScanListBalances(t *testing.T) {
	_, m := newTestManager(30)
	m.Map(1, 10001, AnonNative, 100)
	m.Map(2, 10002, File, 100)
	anon, file := 0, 0
	for i := 0; i < 200; i++ {
		list, ok := m.pickScanList()
		if !ok {
			t.Fatal("no list with both populated")
		}
		switch list {
		case lInactiveAnon:
			anon++
		case lInactiveFile:
			file++
		default:
			t.Fatalf("unexpected list %v", list)
		}
	}
	if anon == 0 || file == 0 {
		t.Fatalf("scan balance broken: anon=%d file=%d", anon, file)
	}
}

func TestPickScanListSingleKind(t *testing.T) {
	_, m := newTestManager(31)
	m.Map(1, 10001, File, 50)
	list, ok := m.pickScanList()
	if !ok || list != lInactiveFile {
		t.Fatalf("file-only pick: %v ok=%v", list, ok)
	}
	_, m2 := newTestManager(32)
	if _, ok := m2.pickScanList(); ok {
		t.Fatal("empty lists picked something")
	}
}

func TestDemoteRefillsInactive(t *testing.T) {
	_, m := newTestManager(33)
	ids, _ := m.Map(1, 10001, AnonNative, 100)
	// Activate everything (two touches promote).
	m.Touch(1, ids)
	m.Touch(1, ids)
	counts := m.ListCounts()
	if counts[0] == 0 { // activeAnon
		t.Skip("promotion did not populate the active list")
	}
	m.demoteIfNeeded(AnonNative, 50)
	after := m.ListCounts()
	if after[1] <= counts[1] {
		t.Fatalf("demotion did not refill inactive: %v → %v", counts, after)
	}
}

// aggressiveAll evicts referenced background pages (Acclaim-style) for
// every non-FG uid.
type aggressiveAll struct{}

func (aggressiveAll) Name() string { return "aggressive" }
func (aggressiveAll) Protect(uid int, _ Class, fgUID int) bool {
	return uid == fgUID
}
func (aggressiveAll) EvictReferenced(uid int, fgUID int) bool {
	return uid != fgUID
}

func TestAggressivePolicySkipsSecondChance(t *testing.T) {
	_, m := newTestManager(34)
	cfgCopy := m.Config()
	cfgCopy.MemcgScanFraction = 0
	m.cfg = cfgCopy
	m.SetForegroundUID(10001)

	bg, _ := m.Map(2, 10002, AnonNative, 60)
	m.Touch(2, bg) // referenced: LRU would spare them one round

	m.SetEvictionPolicy(aggressiveAll{})
	res := m.reclaimPages(30)
	if res.reclaimed < 25 {
		t.Fatalf("aggressive policy reclaimed only %d of 30", res.reclaimed)
	}
	evicted := 0
	for _, id := range bg {
		if m.Info(id).State == Evicted {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("no referenced background pages were sacrificed")
	}
}

func TestRandomVictimSkipsReferencedByDefault(t *testing.T) {
	_, m := newTestManager(35)
	ids, _ := m.Map(1, 10001, AnonNative, 50)
	m.Touch(1, ids) // all referenced
	if id, ok := m.randomVictim(); ok {
		if m.slots[id].referenced() {
			t.Fatal("randomVictim returned a referenced page without a policy")
		}
	}
}

func TestKswapdStepStopsAtHigh(t *testing.T) {
	_, m := newTestManager(36)
	// Fill below high.
	m.Map(1, 10001, AnonNative, m.FreePages()-m.Config().HighWatermark+64)
	for i := 0; i < 1000; i++ {
		_, reclaimed, more := m.KswapdStep()
		if !more {
			if reclaimed != 0 && m.BelowHigh() {
				t.Fatal("kswapd stopped while below high with progress available")
			}
			break
		}
	}
	if m.BelowHigh() {
		t.Fatalf("kswapd never restored the high watermark: free=%d high=%d",
			m.FreePages(), m.Config().HighWatermark)
	}
}

func TestReclaimRespectsZramCompression(t *testing.T) {
	_, m := newTestManager(37)
	free0 := m.FreePages()
	m.Map(1, 10001, AnonNative, 100)
	m.ReclaimProcess(1)
	// Evicting anon frees RAM minus the compressed footprint.
	gain := m.FreePages() - (free0 - 100)
	if gain <= 0 || gain >= 100 {
		t.Fatalf("anon eviction net gain %d of 100; compression accounting broken", gain)
	}
}

func TestRefaultRateMeter(t *testing.T) {
	eng, m := newTestManager(38)
	ids, _ := m.Map(1, 10001, AnonJava, 50)
	m.ReclaimProcess(1)
	if m.RefaultRate() != 0 {
		t.Fatal("rate before refaults")
	}
	m.Touch(1, ids)
	r := m.RefaultRate()
	// 50 refaults within a 2-second window → 25/s.
	if r < 20 || r > 30 {
		t.Fatalf("refault rate %v, want ≈25", r)
	}
	eng.RunFor(3 * m.cfg.ThrashWindow)
	if m.RefaultRate() != 0 {
		t.Fatal("rate did not decay")
	}
}

func TestDistanceHistogram(t *testing.T) {
	var h DistanceHistogram
	for _, d := range []uint64{0, 1, 3, 7, 100, 1000} {
		h.note(d)
	}
	if h.Count != 6 {
		t.Fatalf("count %d", h.Count)
	}
	if h.Mean() != (0+1+3+7+100+1000)/6.0 {
		t.Fatalf("mean %v", h.Mean())
	}
	if p := h.Percentile(50); p < 3 || p > 15 {
		t.Fatalf("p50 %d", p)
	}
	if h.ShortShare(7) < 0.5 {
		t.Fatalf("short share %v", h.ShortShare(7))
	}
	if h.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestManagerDistanceTracking(t *testing.T) {
	_, m := newTestManager(39)
	a, _ := m.Map(1, 10001, AnonJava, 1)
	m.ReclaimProcess(1)
	m.Map(2, 10002, AnonJava, 30)
	m.ReclaimProcess(2) // 30 intervening evictions
	m.Touch(1, a)
	h := m.RefaultDistances()
	if h.Count != 1 {
		t.Fatalf("count %d", h.Count)
	}
	if h.Mean() != 30 {
		t.Fatalf("distance mean %v, want 30", h.Mean())
	}
	m.ResetStats()
	if m.RefaultDistances().Count != 0 {
		t.Fatal("histogram survived reset")
	}
}

// victimTape is a fixed operation tape (see applyOp) that leaves the
// arena with a mix of Resident, Evicted and Dead slots, some of them
// recycled after an exit. Operations are drawn with fixed weights, mostly
// maps, touches and reclaim, so the manager runs under pressure.
func victimTape() []byte {
	// The opcodes of each operation: op%6 names the operation and op%4
	// the process, pid 1 or 3.
	kinds := [][]byte{
		{0, 6},  // map
		{2, 8},  // touch
		{3},     // reclaimPages
		{4, 10}, // exit
	}
	tape := make([]byte, 0, 1200)
	x := uint32(2463534242)
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	for len(tape) < cap(tape) {
		r := next()
		var k []byte
		switch w := r % 100; {
		case w < 45:
			k = kinds[0]
		case w < 70:
			k = kinds[1]
		case w < 95:
			k = kinds[2]
		default:
			k = kinds[3]
		}
		tape = append(tape, k[(r>>8)%uint32(len(k))], byte(r>>16))
	}
	return tape
}

// victimSequence replays victimTape and then draws n victims, first with
// plain LRU and then under an aggressive policy; a miss reads nilPage.
func victimSequence(n int) []PageID {
	_, m := newTestManager(41)
	pages := map[int][]PageID{}
	tape := victimTape()
	for i := 0; i+1 < len(tape); i += 2 {
		applyOp(m, pages, tape[i], int(tape[i+1]))
	}
	m.SetForegroundUID(10001)
	var seq []PageID
	for i := 0; i < 2*n; i++ {
		if i == n {
			m.SetEvictionPolicy(aggressiveAll{})
		}
		id, ok := m.randomVictim()
		if !ok {
			id = nilPage
		}
		seq = append(seq, id)
	}
	return seq
}

// TestRandomVictimSequence pins the memcg-style victim probe to the
// exact draws it made when the probe's residency, list and reference bits
// still lived inside the page struct: same RNG consumption, same slot
// IDs, under plain LRU (first 48) and an aggressive policy (last 48).
func TestRandomVictimSequence(t *testing.T) {
	want := []PageID{
		853, 2198, 1176, 1107, 817, 1070, 2185, 2070, 1815, 2305, 790, 962,
		1244, 849, 1062, 2357, 2120, 1846, 2311, 1617, 1855, 907, 2325, 2325,
		813, 1076, 1108, 1001, 2108, 1083, 1015, 1343, 1301, 1081, 2286, 1834,
		1279, 1148, 831, 2337, 1809, 2159, 1185, 828, 2187, 910, 2108, 808,
		1968, 1095, 1349, 1786, 2335, 1302, 896, 846, 2307, 2022, 1925, 1113,
		1006, 1209, 927, 992, 2066, 1051, 2355, 1212, 1355, 1228, 1615, 1231,
		2309, 1066, 1161, 2195, 2066, 2146, 2180, 1071, 1085, 812, 1849, 806,
		802, 1008, 2044, 1831, 1101, 1590, 1786, 1935, 2316, 1223, 2294, 960,
	}
	if got := victimSequence(len(want) / 2); !slices.Equal(got, want) {
		t.Fatalf("victim sequence changed\ngot  %v\nwant %v", got, want)
	}
}

// TestReclaimProcessCountsWriteback checks that per-process reclaim
// reports its dirty-page writeback to the mm.writeback.pages instrument
// as well as to Stats, as the shared reclaim engine does.
func TestReclaimProcessCountsWriteback(t *testing.T) {
	eng, m := newTestManager(43)
	m.cfg.DirtyFileFraction = 1
	m.Map(5, 10005, File, 40)
	m.Map(5, 10005, AnonJava, 10)
	if n := m.ReclaimProcess(5); n != 50 {
		t.Fatalf("ReclaimProcess evicted %d pages, want 50", n)
	}
	want := m.Stats().WritebackPages
	if want != 40 {
		t.Fatalf("Stats().WritebackPages = %d, want 40", want)
	}
	if got := eng.Obs().Counter("mm.writeback.pages").Value(); got != want {
		t.Fatalf("mm.writeback.pages = %d, Stats().WritebackPages = %d", got, want)
	}
}
