// Package cache models the on-chip memory hierarchy of Table 2: a 64KB
// 2-way L1 instruction cache (2-cycle), a 64KB 4-way L1 data cache
// (2-cycle), a unified 1MB 8-way L2 (10-cycle), all with 64B lines and
// LRU replacement, in front of a 300-cycle main memory.
//
// The model is a latency model: an access returns the number of cycles
// until the data is available and updates tag state immediately (no
// MSHRs or bandwidth contention — the paper's evaluation is about
// branch-misprediction behaviour, and these simplifications apply
// equally to every configuration compared). Timing-only: caches hold no
// data; values always come from the architectural memory image or the
// store buffer.
package cache

import "dmp/internal/cow"

// Config describes one cache level.
type Config struct {
	SizeBytes int
	Assoc     int
	LineBytes int
	Latency   int // hit latency in cycles
}

// Cache is one set-associative, LRU, timing-only cache level. Sets live
// in a copy-on-write table (internal/cow) so sampled simulation can
// snapshot a continuously warmed cache in O(sets-metadata): Clone
// freezes the current tag state, and each side privately re-copies only
// the sets it touches afterwards.
//
// The cache remembers the line of its previous access. A repeat of that
// line is a hit that touches no set (no copy-on-write, no LRU stamp, no
// clock tick), and it is exact: the previous line is resident and
// already holds the newest stamp in the whole cache, so re-stamping it
// would change no set's LRU order and hence no later hit, miss or
// victim.
type Cache struct {
	latency int
	sets    cow.Table[line]
	setMask uint64
	lineSh  uint
	setSh   uint
	clock   uint64
	base    uint64 // mask that clears the offset within a line
	last    uint64 // base address of the previous access's line; noLine before any

	Hits, Misses uint64
}

// noLine is the memo before the first access. No line's base address is
// odd, because lines are at least 2 bytes.
const noLine = 1

type line struct {
	valid bool
	tag   uint64
	lru   uint64
}

// New builds a cache level. Geometry must be power-of-two sets.
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Assoc <= 0 || cfg.LineBytes <= 0 {
		panic("cache: bad geometry")
	}
	nlines := cfg.SizeBytes / cfg.LineBytes
	nsets := nlines / cfg.Assoc
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("cache: sets must be a power of two")
	}
	sh := uint(0)
	for 1<<sh != cfg.LineBytes {
		sh++
		if sh > 20 {
			panic("cache: line size must be a power of two")
		}
	}
	if sh == 0 {
		panic("cache: line size must be at least 2 bytes")
	}
	setSh := uint(0)
	for 1<<setSh != nsets {
		setSh++
	}
	return &Cache{latency: cfg.Latency, sets: cow.NewTable[line](nsets, cfg.Assoc),
		setMask: uint64(nsets - 1), lineSh: sh, setSh: setSh,
		base: ^uint64(cfg.LineBytes - 1), last: noLine}
}

// Access looks up addr, fills on miss, and reports whether it hit.
//
//dmp:hotpath
func (c *Cache) Access(addr uint64) bool {
	if addr&c.base == c.last {
		c.Hits++
		return true
	}
	return c.access(addr)
}

// access is Access for a line other than the previous one (kept out of
// Access so the repeat-line path inlines into its callers).
//
//dmp:hotpath
func (c *Cache) access(addr uint64) bool {
	c.last = addr & c.base
	lineAddr := addr >> c.lineSh
	// Every access from here writes the set (LRU stamp on hit, fill on
	// miss), so take it mutable up front; the COW fast path is one
	// compare.
	set := c.sets.Mut(int(lineAddr & c.setMask))
	tag := lineAddr >> c.setSh
	c.clock++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.clock
			c.Hits++
			return true
		}
	}
	c.Misses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = line{valid: true, tag: tag, lru: c.clock}
	return false
}

// Latency returns the hit latency.
func (c *Cache) Latency() int { return c.latency }

// Clone snapshots the cache copy-on-write: tag state is frozen and
// shared (cow.Table.Clone — O(sets) header copies, no line copies), LRU
// clock and counters are copied by value. Sampled simulation warms one
// hierarchy continuously during functional fast-forward and clones it
// per checkpoint so every detailed interval starts with the
// long-reuse-distance cache state an exact run would have; both the
// warmer and the interval machine keep training their instance, each
// privately re-copying only the sets it touches. The previous-line memo
// is copied too: both sides hold the same sets, so it is exact on each.
func (c *Cache) Clone() *Cache {
	n := *c
	n.sets = c.sets.Clone()
	return &n
}

// Hierarchy bundles L1I, L1D, L2 and memory into the lookup functions the
// core uses.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	MemLatency   int
}

// HierarchyConfig parameterises NewHierarchy.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
	MemLatency   int
}

// DefaultHierarchyConfig is Table 2's memory system.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:        Config{SizeBytes: 64 << 10, Assoc: 2, LineBytes: 64, Latency: 2},
		L1D:        Config{SizeBytes: 64 << 10, Assoc: 4, LineBytes: 64, Latency: 2},
		L2:         Config{SizeBytes: 1 << 20, Assoc: 8, LineBytes: 64, Latency: 10},
		MemLatency: 300,
	}
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		L1I:        New(cfg.L1I),
		L1D:        New(cfg.L1D),
		L2:         New(cfg.L2),
		MemLatency: cfg.MemLatency,
	}
}

// Clone deep-copies the whole hierarchy (see Cache.Clone).
func (h *Hierarchy) Clone() *Hierarchy {
	return &Hierarchy{L1I: h.L1I.Clone(), L1D: h.L1D.Clone(), L2: h.L2.Clone(), MemLatency: h.MemLatency}
}

// InstLatency returns the cycles to fetch the instruction word at byte
// address addr. Consecutive fetches mostly stay in one line, so the
// L1I's repeat-line hit is checked here, on a path small enough to
// inline into the fetch and warming loops.
//
//dmp:hotpath
func (h *Hierarchy) InstLatency(addr uint64) int {
	if addr&h.L1I.base == h.L1I.last {
		h.L1I.Hits++
		return h.L1I.latency
	}
	return h.instLatency(addr)
}

// instLatency is InstLatency past the repeat-line hit.
//
//dmp:hotpath
func (h *Hierarchy) instLatency(addr uint64) int {
	if h.L1I.access(addr) {
		return h.L1I.Latency()
	}
	if h.L2.Access(addr) {
		return h.L1I.Latency() + h.L2.Latency()
	}
	return h.L1I.Latency() + h.L2.Latency() + h.MemLatency
}

// DataLatency returns the cycles for a data access at byte address addr.
// Stores also call this at retirement so lines are allocated, but store
// latency is hidden by the store buffer.
func (h *Hierarchy) DataLatency(addr uint64) int {
	if h.L1D.Access(addr) {
		return h.L1D.Latency()
	}
	if h.L2.Access(addr) {
		return h.L1D.Latency() + h.L2.Latency()
	}
	return h.L1D.Latency() + h.L2.Latency() + h.MemLatency
}
