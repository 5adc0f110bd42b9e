package mm

import (
	"fmt"
	"testing"
)

// applyOp runs one two-byte step of an operation tape: op picks the
// process (op%4) and the operation (op%6), arg sizes it. pages tracks
// the IDs each process has mapped so Touch has something to refault.
func applyOp(m *Manager, pages map[int][]PageID, op byte, arg int) {
	pid := int(op%4) + 1
	switch op % 6 {
	case 0:
		ids, _ := m.Map(pid, 10000+pid, Class(arg%3), arg%64+1)
		pages[pid] = append(pages[pid], ids...)
	case 1:
		m.ReclaimProcess(pid)
	case 2:
		if ids := pages[pid]; len(ids) > 0 {
			m.Touch(pid, ids[:arg%len(ids)+1])
		}
	case 3:
		m.reclaimPages(arg%48 + 1)
	case 4:
		m.ExitProcess(pid)
		pages[pid] = nil
	case 5:
		n := arg%16 + 1
		m.AllocTransient(n)
		m.FreeTransient(n)
	}
}

// FuzzMemoryOps drives the manager with arbitrary operation tapes and
// checks the accounting and page-layout invariants after every step. Run
// with `go test -fuzz FuzzMemoryOps ./internal/mm` for an open-ended
// search; under plain `go test` the seed corpus executes as regression
// cases.
func FuzzMemoryOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0})
	f.Add([]byte("reclaim-refault-exit"))
	f.Fuzz(func(t *testing.T, tape []byte) {
		_, m := newTestManager(7)
		pages := map[int][]PageID{}
		for i := 0; i+1 < len(tape); i += 2 {
			applyOp(m, pages, tape[i], int(tape[i+1]))
			free := m.FreePages()
			if free+m.ResidentPages()+m.TransientPages()+m.zramFootprintForTest()+m.cfg.ReservedPages != m.cfg.TotalPages {
				t.Fatalf("conservation violated at step %d", i)
			}
			lc := m.ListCounts()
			if lc[0]+lc[1]+lc[2]+lc[3] != m.ResidentPages() {
				t.Fatalf("LRU occupancy mismatch at step %d", i)
			}
			st := m.Stats()
			if st.Total.Refaulted > st.Total.Reclaimed {
				t.Fatalf("more refaults than reclaims at step %d", i)
			}
			if err := checkLayout(m); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	})
}

// checkLayout verifies that the dense slot array and the intrusive LRU
// lists agree: walking each list from head to tail visits exactly the
// slots whose entry names that list, every one of them Resident, as many
// as the list counts; every Resident slot names a list and no Evicted or
// Dead slot does.
func checkLayout(m *Manager) error {
	if len(m.slots) != len(m.arena) {
		return fmt.Errorf("%d slots for %d arena pages", len(m.slots), len(m.arena))
	}
	onList := make([]bool, len(m.slots))
	for l := listID(0); l < numLists; l++ {
		n, last := 0, nilPage
		for id := m.lists[l].head; id != nilPage; id = m.arena[id].next {
			s := m.slots[id]
			if onList[id] {
				return fmt.Errorf("%v: page %d visited twice", l, id)
			}
			onList[id] = true
			if s.list() != l || s.state() != Resident {
				return fmt.Errorf("%v: page %d is state %d on %v", l, id, s.state(), s.list())
			}
			n, last = n+1, id
		}
		if n != m.lists[l].count || last != m.lists[l].tail {
			return fmt.Errorf("%v: walked %d pages to %d, count %d tail %d", l, n, last, m.lists[l].count, m.lists[l].tail)
		}
	}
	for id, s := range m.slots {
		switch {
		case s.state() == Resident && !onList[id]:
			return fmt.Errorf("resident page %d (list %v) on no list", id, s.list())
		case s.state() != Resident && s.list() != lNone:
			return fmt.Errorf("state-%d page %d names %v", s.state(), id, s.list())
		}
	}
	return nil
}
