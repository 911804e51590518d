// Package merge implements a hardware-style dynamic merge-point
// predictor: it observes the retired instruction stream and learns, per
// hard-to-predict branch, the control-flow merge (CFM) point at which
// the branch's taken and not-taken paths reconverge — with no compiler
// annotation or ISA hint required.
//
// This removes DMP's biggest practical dependency (Section 2.2 of the
// paper ships CFM points as compiler-selected ISA hints): with a merge
// predictor, raw unannotated binaries can be dynamically predicated.
// The mechanism follows Pruett & Patt's dynamic merge-point prediction
// (TR-HPS-2020-001) in spirit — learn reconvergence from retired control
// flow, filter out call bodies, keep a small bounded table — while the
// training rule mirrors this repo's own offline selector
// (profile.selectCFMs): the learned CFM point is the earliest PC
// observed on BOTH the taken and the not-taken path of the branch within
// MaxDist retired instructions, restricted to the branch's own call
// depth.
//
// Hardware model:
//
//   - a reconvergence table of TableSize entries, tagged by branch PC,
//     LRU-replaced; each entry holds the learned CFM point, a saturating
//     confidence counter, and a distance estimate (which becomes the
//     early-exit threshold of a dynamic episode);
//   - up to MaxWindows concurrent training windows; a window opens when
//     a tracked branch retires and records the first MaxTrack distinct
//     PCs retired at the branch's own call depth within MaxDist
//     instructions (a retired CALL suspends recording until the matching
//     RET; returning below the branch's frame ends the window, so a
//     learned merge PC can never sit in a different function);
//   - when the table entry has a completed window for both directions,
//     the pair is folded: the common PC minimizing the summed path
//     distance becomes the candidate CFM, confirming instances saturate
//     the confidence counter upward, and disagreeing instances decay it
//     (hysteresis) until the entry retrains to the new point.
//
// The predictor is deterministic: identical retire streams produce
// identical tables, predictions and counters (pinned by tests). All
// storage is allocated at construction; Observe and Lookup are
// allocation-free (enforced by the dmpvet hotalloc analyzer).
package merge

import (
	"fmt"

	"dmp/internal/isa"
)

// Config sizes the predictor. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// TableSize is the number of reconvergence-table entries (LRU
	// replaced). The sensitivity experiment sweeps 16/64/256.
	TableSize int
	// MaxDist is the training-window length in retired instructions —
	// how far past the branch a merge point may be learned. Matches the
	// offline profiler's 120-instruction rule (profile.Options.MaxDist).
	MaxDist int
	// MaxTrack caps the distinct same-depth PCs recorded per window.
	MaxTrack int
	// MaxWindows caps concurrent training windows.
	MaxWindows int
	// ConfMax saturates the per-entry confidence counter.
	ConfMax int
	// ConfMin is the confidence required before Lookup supplies a
	// prediction.
	ConfMin int
}

// DefaultConfig returns the hardware budget used by the mergepred
// experiment's default leg: a 64-entry table, the profiler's
// 120-instruction window, and 2-of-7 confidence hysteresis.
func DefaultConfig() Config {
	return Config{
		TableSize:  64,
		MaxDist:    120,
		MaxTrack:   48,
		MaxWindows: 4,
		ConfMax:    7,
		ConfMin:    2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.TableSize <= 0:
		return fmt.Errorf("merge: TableSize must be positive")
	case c.MaxDist <= 0 || c.MaxTrack <= 0 || c.MaxTrack > c.MaxDist:
		return fmt.Errorf("merge: need 0 < MaxTrack <= MaxDist")
	case c.MaxWindows <= 0:
		return fmt.Errorf("merge: MaxWindows must be positive")
	case c.ConfMax <= 0 || c.ConfMin <= 0 || c.ConfMin > c.ConfMax:
		return fmt.Errorf("merge: need 0 < ConfMin <= ConfMax")
	}
	return nil
}

// Counts are the predictor's internal occupancy/training counters.
// Lookup-side hit/miss accounting lives with the caller (core.Stats),
// which knows which lookups fed real episode-entry decisions.
type Counts struct {
	// Evictions counts LRU replacements of live table entries.
	Evictions uint64
	// Windows counts completed training windows folded into the table.
	Windows uint64
	// Trainings counts folded direction-pairs (each consumes one taken
	// and one not-taken window of the same branch).
	Trainings uint64
	// Flips counts learned CFM points displaced by a different candidate
	// after confidence decayed to zero.
	Flips uint64
}

// Prediction is a learned merge point for a branch.
type Prediction struct {
	// CFM is the learned control-flow merge PC.
	CFM uint64
	// ExitThreshold is the suggested early-exit budget for the alternate
	// path, derived from the learned dynamic distance exactly like the
	// offline profiler's (1.5x average distance + 8, capped at MaxDist).
	ExitThreshold int
	// Conf is the entry's confidence at lookup time.
	Conf int
}

// entry is one reconvergence-table row.
type entry struct {
	valid   bool
	pc      uint64 // branch PC tag
	lastUse uint64 // LRU stamp
	cfm     uint64 // learned merge PC (0 = none yet)
	conf    int
	distEst int // EWMA dynamic distance branch -> CFM
	have    [2]bool
	path    [2][]uint64 // latest completed window per direction (0 = not-taken)
}

// dedupBuckets sizes each window's direct-mapped seen-PC filter. With
// MaxTrack well below the bucket count, collisions (which only cost a
// duplicate recorded PC, never a lost one... see feedWindows) are rare.
const dedupBuckets = 128

// window is one in-flight training window.
type window struct {
	active bool
	slot   int    // reconvergence-table slot being trained
	pc     uint64 // branch PC (revalidates the slot against eviction)
	dir    int    // 0 = not-taken, 1 = taken
	depth0 int    // call depth of the branch
	left   int    // retired instructions remaining in the window
	pcs    []uint64
	// Direct-mapped duplicate filter: seenPC[h] records the last PC
	// hashed to bucket h, seenAt[h] the window generation that wrote it.
	// Bumping gen on open invalidates the whole filter in O(1).
	gen    uint32
	seenPC []uint64
	seenAt []uint32
}

// Predictor learns merge points from the retired instruction stream.
// It is not safe for concurrent use; a Machine owns exactly one.
type Predictor struct {
	cfg     Config
	entries []entry
	index   map[uint64]int // branch PC -> slot
	used    int            // live entries (allocation before first eviction)
	stamp   uint64         // LRU clock, bumped per Observe/Lookup
	depth   int            // call depth of the retired stream (relative)
	windows []window
	active  int // live training windows; gates the per-retire window scan
	counts  Counts
	// shared marks the storage (entries, index, windows) as possibly
	// aliased by a Clone: the next mutating call deep-copies it first
	// (lazy copy-on-write — sampled simulation snapshots the warmed
	// predictor once per period, and both sides keep training).
	shared bool
}

// New builds a predictor; all storage is preallocated so the observe and
// lookup paths never touch the heap.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Predictor{
		cfg:     cfg,
		entries: make([]entry, cfg.TableSize),
		index:   make(map[uint64]int, cfg.TableSize),
		windows: make([]window, cfg.MaxWindows),
	}
	for i := range p.entries {
		p.entries[i].path[0] = make([]uint64, 0, cfg.MaxTrack)
		p.entries[i].path[1] = make([]uint64, 0, cfg.MaxTrack)
	}
	for i := range p.windows {
		p.windows[i].pcs = make([]uint64, 0, cfg.MaxTrack)
		p.windows[i].seenPC = make([]uint64, dedupBuckets)
		p.windows[i].seenAt = make([]uint32, dedupBuckets)
	}
	return p, nil
}

// Counts returns the predictor's internal counters.
func (p *Predictor) Counts() Counts { return p.counts }

// Entries returns the number of live reconvergence-table entries. Entries
// are replaced, never freed, so this is also the table's peak occupancy.
func (p *Predictor) Entries() int { return p.used }

// Size returns the table's capacity (Config.TableSize).
func (p *Predictor) Size() int { return len(p.entries) }

// Observe feeds one retired architectural instruction (predicate-TRUE
// program instructions only, in retirement order). op and taken describe
// the instruction; train marks a conditional branch the machine wants
// merge prediction for (low confidence or mispredicted at retirement) —
// only such branches allocate table entries, though later instances of
// an already-tracked branch always open training windows so both
// directions accumulate evidence.
//
//dmp:hotpath
func (p *Predictor) Observe(pc uint64, op isa.Op, taken, train bool) {
	if p.shared {
		p.unshare()
	}
	p.stamp++

	// Feed the in-flight windows first: the branch's own retirement must
	// not appear in its window. The active counter keeps the idle-stream
	// fast path (no windows training, which is most retired instructions)
	// to one compare.
	if p.active > 0 {
		p.feedWindows(pc)
	}

	// Track the retired stream's call depth. The instruction at pc ran
	// at the current depth; CALLs raise the depth for what follows.
	switch op {
	case isa.CALL, isa.CALLR:
		p.depth++
	case isa.RET:
		p.depth--
	case isa.BR:
		slot, ok := p.index[pc]
		if !ok {
			if !train {
				return
			}
			slot = p.alloc(pc)
		}
		e := &p.entries[slot]
		e.lastUse = p.stamp
		p.openWindow(slot, pc, taken)
	}
}

// feedWindows advances every in-flight training window by one retired
// instruction at pc. Split out of Observe so the no-window fast path
// stays small enough to inline.
//
//dmp:hotpath
func (p *Predictor) feedWindows(pc uint64) {
	for i := range p.windows {
		w := &p.windows[i]
		if !w.active {
			continue
		}
		if p.depth < w.depth0 {
			// Retired past the branch's own frame: a merge point in the
			// caller would be in a different function — stop training
			// this instance (call-filtering rule).
			p.finishWindow(w)
			continue
		}
		if p.depth == w.depth0 {
			if pc == w.pc {
				// The branch itself retired again: the next instance's
				// paths would contaminate this window (its opposite-path
				// PCs would masquerade as reconvergence points), so the
				// window ends here.
				p.finishWindow(w)
				continue
			}
			// First-occurrence filter. A bucket collision evicts the
			// older PC, whose next occurrence is then recorded again:
			// the occasional duplicate path entry is harmless (retrain
			// matches on first occurrence), whereas a lost PC could
			// hide a merge point — so collisions err toward recording.
			h := pc * 0x9E3779B97F4A7C15 >> (64 - 7) // Fibonacci hash into the 128 buckets
			if w.seenAt[h] != w.gen || w.seenPC[h] != pc {
				w.seenAt[h] = w.gen
				w.seenPC[h] = pc
				w.pcs = append(w.pcs, pc)
			}
		}
		w.left--
		if w.left <= 0 || len(w.pcs) >= p.cfg.MaxTrack {
			p.finishWindow(w)
		}
	}
}

// Lookup consults the table for a learned merge point of the branch at
// pc (fetch-time; wrong-path lookups are fine and touch LRU just like a
// real CAM port would). ok is false when the branch is untracked or its
// confidence is below ConfMin.
//
//dmp:hotpath
func (p *Predictor) Lookup(pc uint64) (pr Prediction, ok bool) {
	if p.shared {
		// Lookup writes too (LRU stamps), so it must also privatize.
		p.unshare()
	}
	slot, found := p.index[pc]
	if !found {
		return pr, false
	}
	p.stamp++
	e := &p.entries[slot]
	e.lastUse = p.stamp
	if e.cfm == 0 || e.conf < p.cfg.ConfMin {
		return pr, false
	}
	thr := e.distEst + e.distEst/2 + 8
	if thr > p.cfg.MaxDist {
		thr = p.cfg.MaxDist
	}
	pr.CFM = e.cfm
	pr.ExitThreshold = thr
	pr.Conf = e.conf
	return pr, true
}

// alloc returns the slot for a new entry tagged pc, evicting the LRU
// entry when the table is full (ties break toward the lower slot, so
// replacement is deterministic).
func (p *Predictor) alloc(pc uint64) int {
	slot := -1
	if p.used < len(p.entries) {
		slot = p.used
		p.used++
	} else {
		min := uint64(1<<64 - 1)
		for i := range p.entries {
			if p.entries[i].lastUse < min {
				min = p.entries[i].lastUse
				slot = i
			}
		}
		old := &p.entries[slot]
		delete(p.index, old.pc)
		p.counts.Evictions++
		// Abandon windows still training the evicted branch.
		for i := range p.windows {
			if w := &p.windows[i]; w.active && w.slot == slot {
				w.active = false
				p.active--
			}
		}
	}
	e := &p.entries[slot]
	path0, path1 := e.path[0][:0], e.path[1][:0]
	*e = entry{valid: true, pc: pc}
	e.path[0], e.path[1] = path0, path1
	p.index[pc] = slot
	return slot
}

// openWindow starts a training window for the branch instance that just
// retired. If every window is busy the instance is skipped (a later one
// trains instead); a window already training the same branch direction
// also skips, so one hot branch cannot monopolize all windows.
func (p *Predictor) openWindow(slot int, pc uint64, taken bool) {
	dir := 0
	if taken {
		dir = 1
	}
	free := -1
	for i := range p.windows {
		w := &p.windows[i]
		if !w.active {
			if free < 0 {
				free = i
			}
			continue
		}
		if w.slot == slot && w.dir == dir {
			return
		}
	}
	if free < 0 {
		return
	}
	w := &p.windows[free]
	w.active = true
	p.active++
	w.slot = slot
	w.pc = pc
	w.dir = dir
	w.depth0 = p.depth
	w.left = p.cfg.MaxDist
	w.pcs = w.pcs[:0]
	w.gen++
	if w.gen == 0 {
		// Generation wrap: a stale bucket could otherwise alias a
		// four-billion-windows-old entry. Clear and restart at 1.
		clear(w.seenAt)
		w.gen = 1
	}
}

// finishWindow folds a completed window into its table entry, and — once
// the entry holds a completed window for both directions — retrains the
// entry from the pair.
func (p *Predictor) finishWindow(w *window) {
	w.active = false
	p.active--
	e := &p.entries[w.slot]
	if !e.valid || e.pc != w.pc {
		return // entry was evicted while the window trained
	}
	p.counts.Windows++
	e.path[w.dir] = append(e.path[w.dir][:0], w.pcs...)
	e.have[w.dir] = true
	if e.have[0] && e.have[1] {
		p.retrain(e)
		e.have[0], e.have[1] = false, false
	}
}

// retrain computes the candidate merge point from the entry's current
// direction pair — the common PC minimizing summed path distance, the
// online analogue of profile.selectCFMs's frequency-then-distance rank —
// and applies confirm/decay hysteresis to the confidence counter.
func (p *Predictor) retrain(e *entry) {
	p.counts.Trainings++
	bestPC, bestCost := uint64(0), 1<<31
	for i, tp := range e.path[1] {
		if i >= bestCost {
			break // cost = i + j >= i can no longer beat the best
		}
		// The branch cannot merge its own paths, and its fall-through
		// only appears on both paths through loop-iteration carry — the
		// same exclusions the offline selector applies.
		if tp == e.pc || tp == e.pc+1 {
			continue
		}
		for j, np := range e.path[0] {
			if np != tp {
				continue
			}
			cost := i + j
			if cost < bestCost || (cost == bestCost && tp < bestPC) {
				bestPC, bestCost = tp, cost
			}
			break
		}
	}
	if bestPC == 0 {
		// No common point within the windows: decay confidence so a
		// stale merge point eventually stops being predicted.
		if e.conf > 0 {
			e.conf--
		}
		return
	}
	// Distance from the branch: the longer of the two path indices, +1
	// for 1-based distance (index 0 is the instruction after the branch).
	dist := bestCost + 1 // placeholder; recompute as max below
	for i, tp := range e.path[1] {
		if tp == bestPC {
			dist = i + 1
			break
		}
	}
	for j, np := range e.path[0] {
		if np == bestPC {
			if j+1 > dist {
				dist = j + 1
			}
			break
		}
	}
	switch {
	case bestPC == e.cfm:
		if e.conf < p.cfg.ConfMax {
			e.conf++
		}
	case e.conf <= 1:
		if e.cfm != 0 {
			p.counts.Flips++
		}
		e.cfm = bestPC
		e.conf = 1
		e.distEst = 0
	default:
		e.conf-- // hysteresis: disagreeing sample decays, does not flip
		return
	}
	if e.distEst == 0 {
		e.distEst = dist
	} else {
		e.distEst = (3*e.distEst + dist) / 4
	}
}

// Clone snapshots the predictor: table entries (including learned CFM
// points and their path windows), the PC index, in-flight training
// windows, and counters. Sampled simulation warms one predictor
// continuously during functional fast-forward and clones it per
// checkpoint so detailed intervals start with the reconvergence table an
// exact run would have. The snapshot itself is O(1): storage is shared
// and marked, and each instance deep-copies it privately on its first
// subsequent mutation (unshare).
func (p *Predictor) Clone() *Predictor {
	// Lazy copy-on-write: both instances alias the same storage until one
	// of them mutates (Observe/Lookup), which deep-copies first. The
	// shared storage itself is never written again, so a clone handed to
	// another goroutine (with a synchronizing handoff) is race-free.
	p.shared = true
	n := *p
	return &n
}

// unshare deep-copies the predictor's aliased storage into private
// allocations. Kept out of the //dmp:hotpath bodies: Observe/Lookup pay
// one flag test, and the copy happens at most once per Clone.
func (p *Predictor) unshare() {
	entries := make([]entry, len(p.entries))
	for i := range p.entries {
		e := p.entries[i]
		for d := 0; d < 2; d++ {
			path := make([]uint64, len(e.path[d]), p.cfg.MaxTrack)
			copy(path, e.path[d])
			e.path[d] = path
		}
		entries[i] = e
	}
	index := make(map[uint64]int, len(p.index))
	for pc, slot := range p.index {
		index[pc] = slot
	}
	windows := make([]window, len(p.windows))
	for i := range p.windows {
		w := p.windows[i]
		pcs := make([]uint64, len(w.pcs), p.cfg.MaxTrack)
		copy(pcs, w.pcs)
		w.pcs = pcs
		w.seenPC = append([]uint64(nil), w.seenPC...)
		w.seenAt = append([]uint32(nil), w.seenAt...)
		windows[i] = w
	}
	p.entries, p.index, p.windows = entries, index, windows
	p.shared = false
}
