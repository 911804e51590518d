package bpred

import "dmp/internal/cow"

// BTB is the branch target buffer: a set-associative cache of branch
// target addresses, indexed by PC. The front end consults it to find
// where control-flow instructions go before they are decoded; for this
// simulator's one-instruction-per-address ISA the decoded target is also
// available at fetch, so the BTB's role is to model the "branch not in
// BTB" fetch break and to supply targets for indirect jumps via the
// indirect target cache.
type BTB struct {
	sets    cow.Table[btbEntry]
	assoc   int
	setMask uint64
	setSh   uint
	// clock is the per-BTB LRU timestamp source. It must not be shared
	// across BTBs: machines run in parallel, and LRU only needs relative
	// order within one machine anyway.
	clock uint64
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	lru    uint64
}

// NewBTB builds a BTB with the given number of entries (power of two)
// and associativity. The paper's baseline is 4K entries, 4-way.
func NewBTB(entries, assoc int) *BTB {
	if entries <= 0 || assoc <= 0 || entries%assoc != 0 {
		panic("bpred: bad BTB geometry")
	}
	nsets := entries / assoc
	if nsets&(nsets-1) != 0 {
		panic("bpred: BTB sets must be a power of two")
	}
	sh := uint(0)
	for 1<<sh != nsets {
		sh++
	}
	return &BTB{sets: cow.NewTable[btbEntry](nsets, assoc), assoc: assoc,
		setMask: uint64(nsets - 1), setSh: sh}
}

// Lookup returns the predicted target for the branch at pc and whether
// the BTB hits.
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	// Scan read-only; only a hit writes (its LRU stamp), so misses never
	// force a COW set copy.
	set := b.sets.RO(int(pc & b.setMask))
	tag := pc >> b.setSh
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			b.clock++
			ms := b.sets.Mut(int(pc & b.setMask))
			ms[i].lru = b.clock
			return ms[i].target, true
		}
	}
	return 0, false
}

// Insert records a branch target, evicting LRU on conflict.
func (b *BTB) Insert(pc, target uint64) {
	set := b.sets.Mut(int(pc & b.setMask))
	tag := pc >> b.setSh
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			victim = i
			break
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	b.clock++
	set[victim] = btbEntry{valid: true, tag: tag, target: target, lru: b.clock}
}

// RAS is the return address stack. The core checkpoints it by value at
// every branch (it is small), which is how real machines repair RAS
// corruption on misprediction recovery.
type RAS struct {
	stack []uint64
	top   int // index of next push slot
	count int
}

// NewRAS builds a return address stack of the given depth (paper: 64).
func NewRAS(depth int) *RAS {
	if depth <= 0 {
		panic("bpred: bad RAS depth")
	}
	return &RAS{stack: make([]uint64, depth)}
}

// Push records a return address (on a call).
func (r *RAS) Push(addr uint64) {
	r.stack[r.top] = addr
	r.top = (r.top + 1) % len(r.stack)
	if r.count < len(r.stack) {
		r.count++
	}
}

// Pop predicts a return target. An empty stack predicts 0, which will be
// a misprediction — exactly what hardware does.
func (r *RAS) Pop() uint64 {
	if r.count == 0 {
		return 0
	}
	r.top = (r.top + len(r.stack) - 1) % len(r.stack)
	r.count--
	return r.stack[r.top]
}

// SnapshotInto copies the RAS state into s, reusing s's backing storage
// when it is large enough (checkpoint pooling: the core takes a snapshot
// per control uop, which dominates allocation if each copy is fresh).
func (r *RAS) SnapshotInto(s *RASState) {
	s.top, s.count = r.top, r.count
	if cap(s.stack) < len(r.stack) {
		s.stack = make([]uint64, len(r.stack))
	} else {
		s.stack = s.stack[:len(r.stack)]
	}
	copy(s.stack, r.stack)
}

// Restore rewinds the RAS to a snapshot.
func (r *RAS) Restore(s RASState) {
	r.top, r.count = s.top, s.count
	copy(r.stack, s.stack)
}

// RASState is a RAS checkpoint.
type RASState struct {
	stack      []uint64
	top, count int
}

// ITC is the indirect target cache: a direct-mapped table of last-seen
// targets for indirect jumps/calls, indexed by PC xor history (paper:
// 64K entries). The table is chunked copy-on-write: at 64K × 8B it is
// the largest predictor table, and most workloads touch a handful of
// chunks, so COW snapshots pay almost nothing for it.
type ITC struct {
	table cow.Flat[uint64]
	mask  uint64
}

// NewITC builds an indirect target cache with 2^logSize entries.
func NewITC(logSize int) *ITC {
	if logSize <= 0 || logSize > 26 {
		panic("bpred: bad ITC size")
	}
	return &ITC{table: cow.NewFlat[uint64](1 << logSize), mask: 1<<logSize - 1}
}

func (t *ITC) index(pc uint64, hist GHR) uint64 {
	return (pc ^ uint64(hist)<<2) & t.mask
}

// Lookup predicts the target of the indirect branch at pc.
func (t *ITC) Lookup(pc uint64, hist GHR) uint64 {
	return t.table.At(int(t.index(pc, hist)))
}

// Update records the resolved target.
func (t *ITC) Update(pc uint64, hist GHR, target uint64) {
	*t.table.Mut(int(t.index(pc, hist))) = target
}

// Clone snapshots the BTB's tag and target state copy-on-write.
func (b *BTB) Clone() *BTB {
	n := *b
	n.sets = b.sets.Clone()
	return &n
}

// Clone deep-copies the return address stack.
func (r *RAS) Clone() *RAS {
	return &RAS{stack: append([]uint64(nil), r.stack...), top: r.top, count: r.count}
}

// Clone snapshots the indirect target cache copy-on-write.
func (t *ITC) Clone() *ITC {
	return &ITC{table: t.table.Clone(), mask: t.mask}
}
