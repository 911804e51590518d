// Package emu implements the architectural (functional) model of the DMP
// ISA: a sparse 64-bit word memory and an emulator that executes programs
// instruction by instruction.
//
// The emulator serves three roles in the reproduction:
//
//   - fetch oracle: a pausable emulator instance follows the fetch stream
//     along correct-path instructions, providing perfect branch outcomes
//     (perfect prediction and perfect confidence estimation) and the
//     wrong-path classification behind Figure 1;
//   - golden model: the same instance's step log (Logged) is what the
//     out-of-order core's retired, predicate-TRUE instruction stream
//     must match exactly;
//   - profiler substrate: internal/profile drives it to collect edge
//     profiles and reconvergence statistics.
package emu

// pageBits selects a 4096-word (32KB) page granularity for the sparse
// memory; workload footprints are a few MB at most.
const pageBits = 12

const pageWords = 1 << pageBits

// page is one block of words plus its copy-on-write owner: the Memory
// allowed to write it in place. A nil owner (or any other Memory) marks
// the page frozen — shared with at least one clone — and a writer must
// copy it privately first. Frozen pages are never written again by
// anyone, which is what makes concurrent use of a Memory and its clones
// on different goroutines race-free (the handoff itself must synchronize,
// e.g. a channel send).
type page struct {
	owner *Memory
	words [pageWords]uint64
}

// Memory is a sparse map of 64-bit words addressed by byte address; the
// low three address bits are ignored (the ISA is 8-byte-word addressed).
type Memory struct {
	pages map[uint64]*page
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: map[uint64]*page{}}
}

// Read returns the word at addr (missing words read as zero).
func (m *Memory) Read(addr uint64) uint64 {
	w := addr >> 3
	pg := m.pages[w>>pageBits]
	if pg == nil {
		return 0
	}
	return pg.words[w&(pageWords-1)]
}

// Write stores a word at addr, copying the page first when it is shared
// with a clone.
func (m *Memory) Write(addr, val uint64) {
	w := addr >> 3
	idx := w >> pageBits
	pg := m.pages[idx]
	switch {
	case pg == nil:
		pg = &page{owner: m}
		m.pages[idx] = pg
	case pg.owner != m:
		np := &page{owner: m, words: pg.words}
		m.pages[idx] = np
		pg = np
	}
	pg.words[w&(pageWords-1)] = val
}

// Clone returns an independent copy in O(resident pages): the page map is
// copied, every page is frozen (disowned), and each side copies a page
// privately on its first subsequent write to it. Checkpoints in sampled
// simulation clone the warming emulator's memory once per period and the
// interval machine clones the checkpoint twice more (committed state
// and fetch oracle) — page sharing makes all of these O(metadata)
// instead of O(footprint).
func (m *Memory) Clone() *Memory {
	c := &Memory{pages: make(map[uint64]*page, len(m.pages))}
	for k, pg := range m.pages {
		if pg.owner != nil {
			// Only pages owned by m can have a non-nil owner here, and m's
			// goroutine is the only one that writes them — already-frozen
			// pages are left untouched so cloning a checkpoint shared with
			// another goroutine never writes shared state.
			pg.owner = nil
		}
		c.pages[k] = pg
	}
	return c
}

// Each calls fn for every non-zero resident word, in unspecified order.
func (m *Memory) Each(fn func(addr, val uint64)) {
	//dmp:allow nondeterminism -- unspecified order is documented; callers must sort
	for idx, pg := range m.pages {
		base := idx << pageBits
		for i, v := range pg.words {
			if v != 0 {
				fn((base+uint64(i))<<3, v)
			}
		}
	}
}
