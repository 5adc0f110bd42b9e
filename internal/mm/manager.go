package mm

import (
	"fmt"
	"sort"

	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/storage"
	"github.com/eurosys23/ice/internal/trace"
	"github.com/eurosys23/ice/internal/zram"
)

// Config carries the cost model and structural parameters of the memory
// manager. Costs are per simulated page (64 KiB) unless noted.
type Config struct {
	// TotalPages is physical memory in simulated pages.
	TotalPages int
	// ReservedPages models the kernel's own footprint plus firmware carve-
	// outs; it is never available to applications.
	ReservedPages int

	// HighWatermark / LowWatermark / MinWatermark are the free-page
	// thresholds. kswapd wakes below low and reclaims until free exceeds
	// high; allocations below min enter direct reclaim (the paper's
	// non-preemptive, priority-inverting path).
	HighWatermark int
	LowWatermark  int
	MinWatermark  int

	// ScanCost is CPU per page scanned during reclaim.
	ScanCost sim.Time
	// UnmapCost is CPU per page actually reclaimed (rmap walk, PTE teardown).
	UnmapCost sim.Time
	// FaultCost is base CPU per page fault (walk + allocation fast path).
	FaultCost sim.Time
	// SlowPathCost is the extra allocation cost once free memory is below
	// the low watermark (wakeups, throttling, retry loops).
	SlowPathCost sim.Time
	// LockHoldPerReclaim is how long each reclaimed page keeps the LRU/zone
	// lock busy; concurrent faults and allocations queue behind it. This is
	// the priority-inversion channel of §2.2.3.
	LockHoldPerReclaim sim.Time
	// LockHoldPerOp is lock time per fault/allocation operation.
	LockHoldPerOp sim.Time
	// MaxLockWait caps a single operation's contention stall.
	MaxLockWait sim.Time

	// KswapdBatch is pages per kswapd work quantum.
	KswapdBatch int
	// DirectReclaimBatch is pages reclaimed per direct-reclaim episode.
	DirectReclaimBatch int

	// DirtyFileFraction is the probability a freshly mapped file page is
	// dirty (needs writeback on reclaim).
	DirtyFileFraction float64

	// MemcgScanFraction is the share of reclaim scans that use
	// proportional (per-application, memcg-style) victim selection instead
	// of the global LRU tail. Android kernels scan per-app cgroups, which
	// is why foreground pages are evicted too — the effect Acclaim exists
	// to suppress and the source of the paper's ~35 % foreground refaults.
	MemcgScanFraction float64

	// ThrashCoupling taxes every task's memory phase in proportion to the
	// system's recent reclaim+refault rate. It aggregates the microscopic
	// interference channels a task-level simulator cannot resolve
	// individually — LRU/zone-lock contention, rmap walks, TLB shootdown
	// IPIs, fault-handler CPU steal, cache pollution — into one calibrated
	// constant: mean stall = ThrashCoupling × rate^ThrashExponent
	// (pages/s), capped at ThrashMaxStall. This is the paper's §2.2.3
	// priority inversion: frame rendering tasks blocked by memory
	// reclaiming tasks.
	ThrashCoupling sim.Time
	// ThrashExponent is the rate exponent of the coupling curve.
	ThrashExponent float64
	// ThrashMaxStall caps a single operation's thrash stall.
	ThrashMaxStall sim.Time
	// ThrashWindow is the sliding window over which the rate is measured.
	ThrashWindow sim.Time
}

// DefaultConfig returns the calibrated cost model shared by all devices;
// structural fields (sizes, watermarks) must be filled from a device profile.
func DefaultConfig() Config {
	return Config{
		ScanCost:           2 * sim.Microsecond,
		UnmapCost:          90 * sim.Microsecond,
		FaultCost:          25 * sim.Microsecond,
		SlowPathCost:       80 * sim.Microsecond,
		LockHoldPerReclaim: 35 * sim.Microsecond,
		LockHoldPerOp:      8 * sim.Microsecond,
		MaxLockWait:        4 * sim.Millisecond,
		KswapdBatch:        8,
		DirectReclaimBatch: 32,
		DirtyFileFraction:  0.25,
		MemcgScanFraction:  0.55,
		ThrashCoupling:     120 * sim.Microsecond,
		ThrashExponent:     1.0,
		ThrashMaxStall:     200 * sim.Millisecond,
		ThrashWindow:       2 * sim.Second,
	}
}

// RefaultEvent is published on every refault. ICE's RPF component consumes
// these; the statistics layer also records them.
type RefaultEvent struct {
	PID        int
	UID        int
	Class      Class
	Foreground bool
	// Distance is the workingset refault distance: evictions that occurred
	// between this page's reclaim and its refault.
	Distance uint64
	When     sim.Time
}

// Counter pairs reclaim and refault page counts; the unit is simulated
// pages.
type Counter struct {
	Reclaimed uint64
	Refaulted uint64
}

// Stats aggregates memory-management activity.
type Stats struct {
	Total Counter
	// RefaultFG / RefaultBG split refaults by who demanded the page.
	RefaultFG uint64
	RefaultBG uint64
	// Refaults per class, and anonymous refault split for Figure 4.
	RefaultByClass [numClasses]uint64
	// ReclaimByClass splits reclaimed pages by class.
	ReclaimByClass [numClasses]uint64
	// KswapdReclaimed vs DirectReclaimed split reclaim by path.
	KswapdReclaimed uint64
	DirectReclaimed uint64
	// DirectReclaimEpisodes counts synchronous reclaim entries.
	DirectReclaimEpisodes uint64
	// WritebackPages counts dirty file pages written to flash by reclaim.
	WritebackPages uint64
	// ZramRejects counts anonymous pages that could not be reclaimed
	// because the ZRAM partition was full.
	ZramRejects uint64
	// KswapdWakeups counts low-watermark wakeups.
	KswapdWakeups uint64
	// ContentionStall is total lock wait charged to non-reclaim tasks.
	ContentionStall sim.Time
	// RefaultDistanceSum supports mean refault-distance reporting.
	RefaultDistanceSum uint64
}

// RefaultRatio returns refaulted/reclaimed, the paper's headline waste
// metric (≈39 % across the user study).
func (s Stats) RefaultRatio() float64 {
	if s.Total.Reclaimed == 0 {
		return 0
	}
	return float64(s.Total.Refaulted) / float64(s.Total.Reclaimed)
}

// BGRefaultShare returns the fraction of refaults caused by background
// processes (≈65 % in the paper's Figure 3b).
func (s Stats) BGRefaultShare() float64 {
	if s.Total.Refaulted == 0 {
		return 0
	}
	return float64(s.RefaultBG) / float64(s.Total.Refaulted)
}

// Cost is the price of a memory operation as experienced by the calling
// task: a synchronous CPU stall plus, when flash I/O is involved, an
// absolute time the task must block until.
type Cost struct {
	Stall      sim.Time
	BlockUntil sim.Time
}

// Add merges another cost into c.
func (c *Cost) Add(o Cost) {
	c.Stall += o.Stall
	if o.BlockUntil > c.BlockUntil {
		c.BlockUntil = o.BlockUntil
	}
}

// Manager is the simulated memory-management subsystem for one device.
type Manager struct {
	eng  *sim.Engine
	rng  *sim.Rand
	cfg  Config
	z    *zram.Zram
	disk *storage.Device

	arena []page
	// slots is the dense per-page state/list/referenced byte, indexed
	// like arena and grown with it (see slot).
	slots     []slot
	freeSlots []PageID
	lists     [numLists]lruList

	// resident counts pages occupying physical memory; transient counts
	// short-lived buffer pages that bypass the LRU.
	resident  int
	transient int

	// byPID indexes each process's live (resident or evicted) pages, in
	// mapping order, for per-process reclaim and exit teardown. Freed
	// pages linger as tombstones only until deadInPID crosses half the
	// slice, then an order-preserving sweep moves them to deadByPID, so
	// per-process scans stay proportional to the live page count even
	// under unbounded heap churn.
	byPID map[int][]PageID
	// deadByPID holds each process's freed page IDs until ExitProcess
	// recycles their arena slots (recycling earlier would change arena
	// growth and with it randomVictim's draw mapping — see page.mapSeq).
	deadByPID map[int][]PageID
	// deadInPID counts tombstoned entries still inside byPID.
	deadInPID map[int]int
	// mapClock stamps page.mapSeq in Map order.
	mapClock uint64

	fgUID int

	// evictClock is the workingset eviction counter backing shadow entries.
	evictClock uint64

	// lockBusyUntil models the LRU/zone lock as a FIFO server.
	lockBusyUntil sim.Time

	// kswapdWanted is set while free < low watermark; the android layer
	// polls it via NeedKswapd or registers a waker.
	kswapdWaker   func()
	kswapdWanted  bool
	pressureHooks []func()
	refaultHooks  []func(RefaultEvent)

	// swapFullHooks fire after a reclaim episode in which ZRAM rejected
	// a store for lack of capacity; swapFullPending defers the delivery
	// until the scan loop has released its iteration state.
	swapFullHooks   []func()
	swapFullPending bool

	policy EvictionPolicy
	// aggressive caches the policy's AggressivePolicy capability — the
	// type assertion would otherwise run once per scanned page.
	aggressive AggressivePolicy

	thrash       thrashMeter
	refaultMeter thrashMeter
	distances    DistanceHistogram

	stats   Stats
	series  seriesRecorder
	perUID  map[int]*Counter
	started sim.Time

	ins instruments
	tr  *trace.Buffer
}

// New creates a memory manager.
func New(eng *sim.Engine, cfg Config, z *zram.Zram, disk *storage.Device) *Manager {
	if cfg.TotalPages <= 0 {
		panic(fmt.Sprintf("mm: non-positive TotalPages %d", cfg.TotalPages))
	}
	if !(cfg.MinWatermark < cfg.LowWatermark && cfg.LowWatermark < cfg.HighWatermark) {
		panic(fmt.Sprintf("mm: watermarks must satisfy min<low<high, got %d/%d/%d",
			cfg.MinWatermark, cfg.LowWatermark, cfg.HighWatermark))
	}
	capacity := cfg.TotalPages + z.Config().CapacityPages
	m := &Manager{
		eng:       eng,
		rng:       eng.Rand().Split(),
		cfg:       cfg,
		z:         z,
		disk:      disk,
		byPID:     make(map[int][]PageID),
		deadByPID: make(map[int][]PageID),
		deadInPID: make(map[int]int),
		perUID:    make(map[int]*Counter),
		fgUID:     -1,
		// The arena and its probe bytes are allocated once, with a slot
		// per physical page plus one per page the ZRAM partition can
		// hold, instead of growing by append (and leaving every outgrown
		// copy as garbage) while a cell fills its device. A cell whose
		// evicted file pages and exit-pending slots exceed that still
		// grows by append. Slot IDs are assigned exactly as before, so
		// output is unchanged.
		arena: make([]page, 0, capacity),
		slots: make([]slot, 0, capacity),
	}
	for i := range m.lists {
		m.lists[i] = newLRUList()
	}
	m.ins.register(eng.Obs())
	return m
}

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// Stats returns a snapshot of the accumulated statistics.
func (m *Manager) Stats() Stats { return m.stats }

// PerUID returns the reclaim/refault counter for uid (zero value if none).
func (m *Manager) PerUID(uid int) Counter {
	if c := m.perUID[uid]; c != nil {
		return *c
	}
	return Counter{}
}

// ResetStats zeroes counters and series; memory contents are preserved.
// Experiments call this after the warm-up/caching phase.
func (m *Manager) ResetStats() {
	m.stats = Stats{}
	m.distances = DistanceHistogram{}
	m.series.reset()
	m.perUID = make(map[int]*Counter)
	m.started = m.eng.Now()
	m.z.ResetStats()
	m.disk.ResetStats()
}

// SetForegroundUID tells the manager which application is in the
// foreground; refaults are classified FG/BG against this.
func (m *Manager) SetForegroundUID(uid int) { m.fgUID = uid }

// ForegroundUID returns the current foreground UID (-1 if none).
func (m *Manager) ForegroundUID() int { return m.fgUID }

// SetEvictionPolicy installs a reclaim victim-selection policy (Acclaim's
// foreground-aware eviction plugs in here). A nil policy restores default
// LRU behaviour.
func (m *Manager) SetEvictionPolicy(p EvictionPolicy) {
	m.policy = p
	m.aggressive, _ = p.(AggressivePolicy)
}

// OnRefault registers a hook invoked synchronously on every refault.
func (m *Manager) OnRefault(fn func(RefaultEvent)) {
	m.refaultHooks = append(m.refaultHooks, fn)
}

// OnSwapFull registers a hook invoked when a reclaim episode had to
// reject anonymous pages because the ZRAM partition is out of capacity —
// the OOMK-decision seam SWAM's swap-aware victim policy plugs into.
// Hooks run after the reclaim scan completes, never from inside it, so
// they may kill processes (which mutates the page lists) safely.
func (m *Manager) OnSwapFull(fn func()) {
	m.swapFullHooks = append(m.swapFullHooks, fn)
}

// noteSwapFull records a capacity rejection for post-scan delivery. It
// is deliberately not the delivery point: the caller sits inside the
// reclaim scan loop, where a hook's side effects (an OOM kill tearing
// down arena pages) would corrupt the iteration.
func (m *Manager) noteSwapFull() {
	if len(m.swapFullHooks) > 0 {
		m.swapFullPending = true
	}
}

// fireSwapFull delivers a pending swap-full notification.
func (m *Manager) fireSwapFull() {
	if !m.swapFullPending {
		return
	}
	m.swapFullPending = false
	for _, fn := range m.swapFullHooks {
		fn()
	}
}

// OnPressure registers a hook invoked when reclaim cannot restore the
// minimum watermark (the LMK trigger).
func (m *Manager) OnPressure(fn func()) {
	m.pressureHooks = append(m.pressureHooks, fn)
}

// SetKswapdWaker registers the callback that makes the kswapd task runnable.
func (m *Manager) SetKswapdWaker(fn func()) { m.kswapdWaker = fn }

// FreePages returns the current number of free physical pages. It can go
// slightly negative under transient overcommit, mirroring atomic reserves.
func (m *Manager) FreePages() int {
	return m.cfg.TotalPages - m.cfg.ReservedPages - m.resident - m.transient - m.z.FootprintPages()
}

// AvailablePages is the paper's S_am: free pages plus easily reclaimable
// (clean inactive file) pages. MDT's Equation 1 consumes this.
func (m *Manager) AvailablePages() int {
	avail := m.FreePages() + m.lists[lInactiveFile].count/2
	if avail < 1 {
		avail = 1
	}
	return avail
}

// ResidentPages returns pages currently occupying RAM on behalf of
// processes (excluding ZRAM footprint).
func (m *Manager) ResidentPages() int { return m.resident }

// TransientPages returns short-lived buffer pages currently allocated.
func (m *Manager) TransientPages() int { return m.transient }

// ListCounts reports LRU occupancy (activeAnon, inactiveAnon, activeFile,
// inactiveFile) for tests and debugging.
func (m *Manager) ListCounts() [4]int {
	return [4]int{
		m.lists[lActiveAnon].count,
		m.lists[lInactiveAnon].count,
		m.lists[lActiveFile].count,
		m.lists[lInactiveFile].count,
	}
}

// NeedKswapd reports whether free memory is below the low watermark.
func (m *Manager) NeedKswapd() bool { return m.FreePages() < m.cfg.LowWatermark }

// BelowHigh reports whether kswapd still has work to do.
func (m *Manager) BelowHigh() bool { return m.FreePages() < m.cfg.HighWatermark }

func (m *Manager) wakeKswapd() {
	if m.kswapdWanted {
		return
	}
	m.kswapdWanted = true
	m.stats.KswapdWakeups++
	m.ins.kswapdWakeups.Inc()
	if m.kswapdWaker != nil {
		m.kswapdWaker()
	}
}

// KswapdSleep is called by the kswapd task when it finds free memory above
// the high watermark.
func (m *Manager) KswapdSleep() { m.kswapdWanted = false }

// allocSlot returns a fresh arena slot.
func (m *Manager) allocSlot() PageID {
	if n := len(m.freeSlots); n > 0 {
		id := m.freeSlots[n-1]
		m.freeSlots = m.freeSlots[:n-1]
		return id
	}
	m.arena = append(m.arena, page{prev: nilPage, next: nilPage})
	m.slots = append(m.slots, 0)
	return PageID(len(m.arena) - 1)
}

// readerLockWait returns the wait a read-mostly lock user experiences:
// half the outstanding lock backlog, capped, without extending the
// backlog.
func (m *Manager) readerLockWait() sim.Time {
	now := m.eng.Now()
	if m.lockBusyUntil <= now {
		return 0
	}
	wait := (m.lockBusyUntil - now) / 2
	if wait > m.cfg.MaxLockWait {
		wait = m.cfg.MaxLockWait
	}
	return wait
}

// lockWait charges the calling operation the current lock queue delay and
// occupies the lock for hold. Reclaim itself uses charge=false: it *is* the
// lock holder.
func (m *Manager) lockWait(hold sim.Time, charge bool) sim.Time {
	now := m.eng.Now()
	var wait sim.Time
	if m.lockBusyUntil > now {
		wait = m.lockBusyUntil - now
		if wait > m.cfg.MaxLockWait {
			wait = m.cfg.MaxLockWait
		}
	} else {
		m.lockBusyUntil = now
	}
	m.lockBusyUntil += hold
	if charge && wait > 0 {
		m.stats.ContentionStall += wait
		m.ins.lockWait.Observe(int64(wait))
	}
	if !charge {
		wait = 0
	}
	return wait
}

// Map creates n resident pages of the given class for process pid/uid and
// returns their IDs plus the cost of the allocation. Hot callers that keep
// their own page lists should use MapAppend instead, which writes into a
// caller-owned slice and avoids the per-batch allocation here.
func (m *Manager) Map(pid, uid int, class Class, n int) ([]PageID, Cost) {
	return m.MapAppend(make([]PageID, 0, n), pid, uid, class, n)
}

// MapAppend creates n resident pages of the given class for process
// pid/uid, appending their IDs to dst (returned like append). Mapping is
// how cold launches and heap growth acquire memory; it passes through the
// watermark machinery (charged once per batch, like the kernel's bulk
// allocation paths) and can therefore stall in direct reclaim.
func (m *Manager) MapAppend(dst []PageID, pid, uid int, class Class, n int) ([]PageID, Cost) {
	cost := m.chargeAlloc(n)
	// Look the index slice up once per batch (after chargeAlloc, whose
	// pressure hooks may tear processes down), not once per page.
	pages := m.byPID[pid]
	for i := 0; i < n; i++ {
		id := m.mapPage(pid, uid, class)
		pages = append(pages, id)
		dst = append(dst, id)
	}
	m.byPID[pid] = pages
	return dst, cost
}

// MapOne creates a single resident page, the churn-path variant (GC
// compaction remaps pages one at a time) that never touches a slice.
func (m *Manager) MapOne(pid, uid int, class Class) (PageID, Cost) {
	cost := m.chargeAlloc(1)
	id := m.mapPage(pid, uid, class)
	m.byPID[pid] = append(m.byPID[pid], id)
	return id, cost
}

// mapPage initialises a fresh page in the arena and links it resident.
func (m *Manager) mapPage(pid, uid int, class Class) PageID {
	id := m.allocSlot()
	p := &m.arena[id]
	m.mapClock++
	*p = page{
		pid:    int32(pid),
		uid:    int32(uid),
		class:  class,
		prev:   nilPage,
		next:   nilPage,
		mapSeq: m.mapClock,
	}
	// Resident and unreferenced; addToLRU below links it.
	m.slots[id] = slot(Resident) | slot(lNone)<<slotListShift
	if class == File {
		p.dirty = m.rng.Bool(m.cfg.DirtyFileFraction)
	}
	m.resident++
	m.addToLRU(id, inactiveList(class))
	return id
}

// chargeAlloc performs the watermark checks for allocating n physical pages
// and returns the cost. It wakes kswapd below low and enters direct reclaim
// below min. The slow path is charged per page; the lock is taken once per
// batch; direct reclaim covers the full shortfall so a large mapping cannot
// drive free memory arbitrarily negative.
func (m *Manager) chargeAlloc(n int) Cost {
	var cost Cost
	free := m.FreePages() - n
	if free < m.cfg.LowWatermark {
		m.wakeKswapd()
		cost.Stall += m.cfg.SlowPathCost * sim.Time(n)
		cost.Stall += m.lockWait(m.cfg.LockHoldPerOp, true)
		// Allocation under pressure contends with the churning memory
		// subsystem just as faults do.
		cost.Stall += m.thrashStall()
	}
	if free < m.cfg.MinWatermark {
		// Direct reclaim must actually produce the pages: physical memory
		// is conserved. If reclaim cannot restore the floor (ZRAM full,
		// file cache exhausted), memory pressure is raised so the LMK can
		// kill — synchronously freeing a whole application — and reclaim
		// retries. Only a bounded transient overdraft (atomic reserves) is
		// tolerated.
		for attempt := 0; attempt < 10; attempt++ {
			// Evicting an anonymous page frees only a fraction of a page
			// (its compressed copy occupies ZRAM), so aim past the
			// shortfall.
			target := (m.cfg.MinWatermark-free)*2 + m.cfg.KswapdBatch
			if target < m.cfg.DirectReclaimBatch {
				target = m.cfg.DirectReclaimBatch
			}
			before := m.stats.Total.Reclaimed
			cost.Add(m.directReclaim(target))
			free = m.FreePages() - n
			if free >= m.cfg.MinWatermark/2 {
				break
			}
			if m.stats.Total.Reclaimed == before {
				// Reclaim is out of supply (ZRAM full, caches dropped):
				// only now is killing justified.
				for _, fn := range m.pressureHooks {
					fn()
				}
				free = m.FreePages() - n
				if free >= m.cfg.MinWatermark/2 {
					break
				}
			}
		}
	}
	return cost
}

// addToLRU places a resident page on the given list (MRU end).
func (m *Manager) addToLRU(id PageID, l listID) {
	s := &m.slots[id]
	if old := s.list(); old != lNone {
		m.lists[old].remove(m.arena, id)
	}
	s.setList(l)
	m.lists[l].pushFront(m.arena, id)
}

// FreePagesOf releases specific resident or evicted pages permanently
// (heap shrink / GC churn). Dead IDs are ignored.
func (m *Manager) FreePagesOf(ids []PageID) {
	for _, id := range ids {
		m.freePage(id)
	}
}

func (m *Manager) freePage(id PageID) {
	if m.slots[id].state() == Dead {
		return
	}
	m.killPage(id)
	pid := int(m.arena[id].pid)
	m.deadInPID[pid]++
	// Amortised index compaction: once tombstones outnumber live entries,
	// sweep them out (order-preserving) so per-process scans and the index
	// itself stay proportional to the live page count. A swap-remove would
	// be O(1) per free but permutes byPID order, and both ReclaimProcess's
	// eviction-epoch assignment and ExitProcess's slot recycling are
	// order-sensitive — reordering them changes results byte-for-byte.
	if ids := m.byPID[pid]; len(ids) >= compactMinLen && m.deadInPID[pid]*2 > len(ids) {
		m.compactPID(pid)
	}
}

// compactMinLen is the smallest byPID slice worth compacting.
const compactMinLen = 64

// compactPID sweeps pid's tombstoned entries out of byPID (preserving
// mapping order) and parks them on deadByPID for exit-time slot recycling.
func (m *Manager) compactPID(pid int) {
	ids := m.byPID[pid]
	dead := m.deadByPID[pid]
	live := ids[:0]
	for _, id := range ids {
		if m.slots[id].state() == Dead {
			dead = append(dead, id)
		} else {
			live = append(live, id)
		}
	}
	m.byPID[pid] = live
	m.deadByPID[pid] = dead
	m.deadInPID[pid] = 0
}

// killPage transitions one page to Dead, releasing its residency or swap
// slot. The arena slot itself is recycled only by ExitProcess: recycling
// earlier would change how fast the arena grows, and with it the page that
// each of randomVictim's arena draws lands on.
func (m *Manager) killPage(id PageID) {
	s := &m.slots[id]
	switch s.state() {
	case Resident:
		if l := s.list(); l != lNone {
			m.lists[l].remove(m.arena, id)
			s.setList(lNone)
		}
		m.resident--
	case Evicted:
		if p := &m.arena[id]; p.class.Anon() {
			m.z.Drop(p.zref, zram.PageInfo{Java: p.class == AnonJava})
		}
	case Dead:
		return
	}
	s.setState(Dead)
}

// ExitProcess tears down every page of pid (LMK kill or app removal).
func (m *Manager) ExitProcess(pid int) {
	ids := append(m.byPID[pid], m.deadByPID[pid]...)
	// Recycle arena slots in mapping order — exactly the order the old
	// append-only index yielded — so later allocations reuse slots
	// byte-identically no matter how compaction interleaved with frees.
	sort.Slice(ids, func(i, j int) bool {
		return m.arena[ids[i]].mapSeq < m.arena[ids[j]].mapSeq
	})
	for _, id := range ids {
		m.killPage(id)
	}
	m.freeSlots = append(m.freeSlots, ids...)
	delete(m.byPID, pid)
	delete(m.deadByPID, pid)
	delete(m.deadInPID, pid)
}

// PagesOf returns the page IDs mapped by pid (the live index slice;
// callers must not mutate it). Freed pages disappear from the index once
// compaction sweeps them, so the slice may still contain a bounded number
// of Dead tombstones.
func (m *Manager) PagesOf(pid int) []PageID { return m.byPID[pid] }

// ResidentOf counts pid's resident pages.
func (m *Manager) ResidentOf(pid int) int {
	var n int
	for _, id := range m.byPID[pid] {
		if m.slots[id].state() == Resident {
			n++
		}
	}
	return n
}

// EvictedOf counts pid's evicted pages.
func (m *Manager) EvictedOf(pid int) int {
	var n int
	for _, id := range m.byPID[pid] {
		if m.slots[id].state() == Evicted {
			n++
		}
	}
	return n
}

// HeatOf sums the hotness of pid's resident pages — the per-process age
// signal OOMK-decision policies (SWAM) score victims with: a large
// footprint with low total heat is memory held but not used.
func (m *Manager) HeatOf(pid int) int {
	var h int
	for _, id := range m.byPID[pid] {
		if m.slots[id].state() == Resident {
			h += int(m.arena[id].heat)
		}
	}
	return h
}

// AllocTransient acquires n short-lived buffer pages (render surfaces,
// bounce buffers) that bypass the LRU, returning the allocation cost.
// Callers must pair with FreeTransient.
func (m *Manager) AllocTransient(n int) Cost {
	cost := m.chargeAlloc(n)
	m.transient += n
	return cost
}

// FreeTransient releases n transient pages.
func (m *Manager) FreeTransient(n int) {
	m.transient -= n
	if m.transient < 0 {
		panic("mm: FreeTransient below zero")
	}
}

// PageInfo is a read-only snapshot of one page, for tests and debugging.
type PageInfo struct {
	PID, UID   int
	Class      Class
	State      State
	Dirty      bool
	Referenced bool
	Heat       uint8
}

// Info returns a snapshot of page id.
func (m *Manager) Info(id PageID) PageInfo {
	p, s := &m.arena[id], m.slots[id]
	return PageInfo{
		PID:        int(p.pid),
		UID:        int(p.uid),
		Class:      p.class,
		State:      s.state(),
		Dirty:      p.dirty,
		Referenced: s.referenced(),
		Heat:       p.heat,
	}
}
