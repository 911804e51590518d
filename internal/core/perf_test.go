package core

import (
	"container/heap"
	"math/rand"
	"testing"
)

// --- eventHeap: the typed heap must replicate container/heap exactly ---

// refHeap adapts []event to heap.Interface with the same ordering the
// typed eventHeap uses, so the two can be compared pop-for-pop. Equal-at
// tie order must match: experiment output is sensitive to the order
// same-cycle completions drain.
type refHeap []event

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old) - 1
	e := old[n]
	*h = old[:n]
	return e
}

func TestEventHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var th eventHeap
	var rh refHeap
	// Tag each event with a distinct slot so identity (not just cycle)
	// can be compared. Lots of duplicate at values to stress tie order.
	pending := 0
	for step := 0; step < 20000; step++ {
		if pending == 0 || (rng.Intn(3) != 0 && step < 12000) {
			e := event{at: uint64(rng.Intn(50)), u: uopRef(step%4096 + 1)}
			th.push(e)
			heap.Push(&rh, e)
			pending++
		} else {
			a := th.pop()
			b := heap.Pop(&rh).(event)
			if a.at != b.at || a.u != b.u {
				t.Fatalf("step %d: typed heap popped {at:%d u:%d}, container/heap popped {at:%d u:%d}",
					step, a.at, a.u, b.at, b.u)
			}
			pending--
		}
	}
	for pending > 0 {
		a := th.pop()
		b := heap.Pop(&rh).(event)
		if a.at != b.at || a.u != b.u {
			t.Fatalf("drain: typed heap popped {at:%d u:%d}, container/heap popped {at:%d u:%d}",
				a.at, a.u, b.at, b.u)
		}
		pending--
	}
}

// --- insertBySeq: sorted insertion replacing the per-cycle sort ---

func TestInsertBySeqKeepsAgeOrder(t *testing.T) {
	m := lsqMachine(t)
	rng := rand.New(rand.NewSource(11))
	var q []uopRef
	for i := 0; i < 500; i++ {
		u := m.arena.alloc(uint64(rng.Intn(100)), 0, kindInst)
		q = m.insertBySeq(q, u)
	}
	for i := 1; i < len(q); i++ {
		if a, b := m.arena.at(q[i-1]).seq, m.arena.at(q[i]).seq; a > b {
			t.Fatalf("q[%d].seq=%d > q[%d].seq=%d", i-1, a, i, b)
		}
	}
}

func TestInsertBySeqStableOnTies(t *testing.T) {
	// Select-uops share the episode's selExitSeq, so equal-seq entries
	// occur; insertion must keep them in arrival order.
	m := lsqMachine(t)
	a := m.arena.alloc(5, 0, kindInst)
	b := m.arena.alloc(5, 0, kindInst)
	c := m.arena.alloc(5, 0, kindInst)
	var q []uopRef
	q = m.insertBySeq(q, a)
	q = m.insertBySeq(q, b)
	q = m.insertBySeq(q, c)
	if q[0] != a.ref || q[1] != b.ref || q[2] != c.ref {
		t.Fatal("equal-seq uops not kept in arrival order")
	}
	d := m.arena.alloc(3, 0, kindInst)
	q = m.insertBySeq(q, d)
	if q[0] != d.ref || q[1] != a.ref {
		t.Fatal("lower-seq uop not inserted ahead of ties")
	}
}

// --- uop arena ---

func TestArenaRecyclesOnlySafeUops(t *testing.T) {
	m := lsqMachine(t)
	u := m.arena.alloc(42, 0, kindInst)
	u.fetchSnap = m.snapFetch()
	u.done, u.squashed = true, true
	pooled, gen := len(m.snaps.free), u.gen
	m.recycleFEQ(u)
	if got := m.arena.alloc(43, 1, kindSelect); got != u {
		t.Fatal("free-listed uop not reused by next alloc")
	} else if got.seq != 43 || got.pc != 1 || got.kind != kindSelect {
		t.Fatal("alloc did not set the uop's identity")
	} else if got.fetchSnap != 0 || got.done || got.squashed {
		t.Fatal("reused uop not zeroed")
	} else if got.gen != gen+1 {
		t.Fatalf("recycle left generation %d, want %d", got.gen, gen+1)
	}
	if len(m.snaps.free) != pooled+1 {
		t.Fatalf("front-end recycle left %d pooled fetch snapshots, want %d", len(m.snaps.free), pooled+1)
	}

	// A renamed uop may still be referenced (ROB, RAT, waiters) and must
	// be declined.
	r := m.arena.alloc(44, 0, kindInst)
	r.renamed = true
	m.recycleFEQ(r)
	if len(m.arena.free) != 0 {
		t.Fatalf("free list has %d entries after declining a renamed uop", len(m.arena.free))
	}
}

func TestArenaAllocCrossesChunks(t *testing.T) {
	var a uopArena
	seen := make(map[*uop]bool)
	for i := 0; i < 3*uopChunkSize+5; i++ {
		u := a.alloc(uint64(i), 0, kindInst)
		if seen[u] {
			t.Fatalf("alloc %d returned a live uop twice", i)
		}
		if a.at(u.ref) != u {
			t.Fatalf("alloc %d: slot %d names another uop", i, u.ref)
		}
		seen[u] = true
	}
	if a.allocated != uint64(3*uopChunkSize+5) {
		t.Fatalf("allocated = %d", a.allocated)
	}
}

// --- micro-benchmarks for the scheduling hot paths ---

func BenchmarkArenaAlloc(b *testing.B) {
	var a uopArena
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.alloc(uint64(i), 0, kindInst)
		if len(a.chunks) >= 1024 {
			// A machine releases its slabs at end of Run; emulate that so
			// the benchmark doesn't hoard every slab it ever drew.
			a.release()
			a = uopArena{}
		}
	}
}

func BenchmarkArenaAllocRecycle(b *testing.B) {
	var a uopArena
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.recycle(a.alloc(uint64(i), 0, kindInst))
	}
}

func BenchmarkEventHeapPushPop(b *testing.B) {
	var h eventHeap
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Keep ~64 events in flight, like a busy completion queue.
		h.push(event{at: uint64(i % 300), u: 1})
		if len(h) > 64 {
			h.pop()
		}
	}
}

func BenchmarkInsertBySeq(b *testing.B) {
	m := lsqMachine(b)
	q := make([]uopRef, 0, 64)
	us := make([]*uop, 64)
	for i := range us {
		us[i] = m.arena.alloc(0, 0, kindInst)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u := us[i%len(us)]
		u.seq = uint64(i)
		q = m.insertBySeq(q, u)
		if len(q) == cap(q) {
			q = q[:0]
		}
	}
}
