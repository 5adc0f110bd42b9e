// Package mm is the simulated memory-management subsystem: page-granular
// accounting, Linux-style active/inactive LRU lists for anonymous and
// file-backed pages, free-memory watermarks, a kswapd reclaim path, direct
// reclaim on allocation pressure, and — central to this paper — refault
// detection through workingset shadow entries.
//
// A refault is a page fault on a page that was previously reclaimed. The
// manager classifies each refault as foreground or background by comparing
// the faulting process's UID with the current foreground UID, mirroring the
// instrumentation of the paper's §3.1, and publishes a RefaultEvent to
// registered hooks. ICE's refault-driven process freezing (internal/core)
// subscribes to that event stream.
//
// Scale: one simulated page stands for 16 real 4 KiB pages (64 KiB). All
// counters in this package are simulated pages; reporting layers convert to
// 4 KiB-equivalent counts where that aids comparison with the paper.
package mm

import (
	"fmt"

	"github.com/eurosys23/ice/internal/zram"
)

// PagesPerSimPage is the scale factor between a simulated page and real
// 4 KiB pages.
const PagesPerSimPage = 16

// Class describes what a page holds. The paper's Figure 4 categorises
// refaulted pages into file-backed pages and anonymous pages, the latter
// split between the Java heap and the native heap.
type Class uint8

// Page classes.
const (
	AnonJava Class = iota
	AnonNative
	File
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case AnonJava:
		return "anon-java"
	case AnonNative:
		return "anon-native"
	case File:
		return "file"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Anon reports whether the class is anonymous memory (reclaimed to ZRAM).
func (c Class) Anon() bool { return c == AnonJava || c == AnonNative }

// State is the residency state of a page.
type State uint8

// Page states.
const (
	// Resident pages occupy physical memory and sit on an LRU list.
	Resident State = iota
	// Evicted pages were reclaimed: anonymous content lives in ZRAM,
	// dirty file content was written back, clean file content was dropped.
	// Touching an evicted page is a refault.
	Evicted
	// Dead pages belong to freed mappings and may never be touched again.
	Dead
)

// PageID indexes the page arena. nilPage marks list ends and free links.
type PageID int32

const nilPage PageID = -1

// page is one simulated page. The struct is kept small (40 bytes)
// because scenarios allocate hundreds of thousands of them. Its residency
// state, LRU list and referenced bit live in the manager's dense slot
// array (see slot).
type page struct {
	pid   int32
	uid   int32
	class Class
	// dirty marks file pages that must be written back on reclaim.
	dirty bool
	prev  PageID
	next  PageID
	// heat is the page's hotness: a saturating access counter bumped on
	// every touch and halved when ageing demotes the page to an inactive
	// list. Policies read it through the swap boundary (zram.PageInfo)
	// and per-process aggregates; it never influences stock reclaim.
	heat uint8
	// zref is the zram.CodecRef of an Evicted anonymous page's swap
	// entry — which codec compressed it, so Load/Drop account exactly.
	// Typed as the real CodecRef (not a narrower integer) so widening
	// the codec-reference space can never silently truncate here.
	zref zram.CodecRef
	// evictEpoch is the workingset shadow entry: the value of the manager's
	// eviction clock when the page was reclaimed. The refault distance is
	// the clock delta at refault time.
	evictEpoch uint64
	// mapSeq is the page's position in the manager's global mapping order.
	// ExitProcess recycles a process's arena slots in exactly this order —
	// the order the old append-only byPID index produced — so compacting
	// dead entries out of byPID cannot perturb slot reuse, which would
	// change which pages randomVictim's arena draws land on and break
	// byte-identity.
	mapSeq uint64
}

// heatMax saturates the per-page hotness counter.
const heatMax = 0xff

// slot packs the three page fields the reclaim paths test on every
// candidate into one byte: the residency State (bits 0-1), the LRU list
// the page is on (bits 2-4, lNone when not resident) and the
// second-chance referenced bit set on access (bit 5). Manager.slots holds
// one per arena slot, indexed by PageID, and is the only copy of these
// fields. randomVictim's random draws then land on a byte in a dense
// array (64 slots per cache line) instead of a whole page struct, and
// read the page itself only for the uid of a referenced candidate.
type slot uint8

const (
	slotStateMask  slot = 0x03
	slotListShift       = 2
	slotListMask   slot = 0x07 << slotListShift
	slotReferenced slot = 1 << 5
)

func (s slot) state() State       { return State(s & slotStateMask) }
func (s slot) list() listID       { return listID((s & slotListMask) >> slotListShift) }
func (s slot) referenced() bool   { return s&slotReferenced != 0 }
func (s *slot) setState(st State) { *s = *s&^slotStateMask | slot(st) }
func (s *slot) setList(l listID)  { *s = *s&^slotListMask | slot(l)<<slotListShift }

func (s *slot) setReferenced(r bool) {
	if r {
		*s |= slotReferenced
	} else {
		*s &^= slotReferenced
	}
}

// listID identifies an LRU list.
type listID uint8

const (
	lActiveAnon listID = iota
	lInactiveAnon
	lActiveFile
	lInactiveFile
	numLists
	// lNone marks a page on no list; it must fit slot's 3-bit list field.
	lNone = numLists
)

func (l listID) String() string {
	switch l {
	case lActiveAnon:
		return "active-anon"
	case lInactiveAnon:
		return "inactive-anon"
	case lActiveFile:
		return "active-file"
	case lInactiveFile:
		return "inactive-file"
	case lNone:
		return "none"
	default:
		return fmt.Sprintf("listID(%d)", int(l))
	}
}

// activeList / inactiveList map a class to its LRU lists.
func activeList(c Class) listID {
	if c.Anon() {
		return lActiveAnon
	}
	return lActiveFile
}

func inactiveList(c Class) listID {
	if c.Anon() {
		return lInactiveAnon
	}
	return lInactiveFile
}

// lruList is an intrusive doubly-linked list over the page arena.
// head is the most recently added end; reclaim scans from tail.
type lruList struct {
	head  PageID
	tail  PageID
	count int
}

func newLRUList() lruList { return lruList{head: nilPage, tail: nilPage} }

// pushFront inserts id at the head (MRU end).
func (l *lruList) pushFront(arena []page, id PageID) {
	p := &arena[id]
	p.prev = nilPage
	p.next = l.head
	if l.head != nilPage {
		arena[l.head].prev = id
	}
	l.head = id
	if l.tail == nilPage {
		l.tail = id
	}
	l.count++
}

// remove unlinks id from the list.
func (l *lruList) remove(arena []page, id PageID) {
	p := &arena[id]
	if p.prev != nilPage {
		arena[p.prev].next = p.next
	} else {
		l.head = p.next
	}
	if p.next != nilPage {
		arena[p.next].prev = p.prev
	} else {
		l.tail = p.prev
	}
	p.prev, p.next = nilPage, nilPage
	l.count--
}

// back returns the LRU-end page, or nilPage if empty.
func (l *lruList) back() PageID { return l.tail }
