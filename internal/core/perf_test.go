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
	// Tag each event with a distinct uop so identity (not just cycle) can
	// be compared. Lots of duplicate at values to stress tie order.
	uops := make([]uop, 4096)
	pending := 0
	for step := 0; step < 20000; step++ {
		if pending == 0 || (rng.Intn(3) != 0 && step < 12000) {
			e := event{at: uint64(rng.Intn(50)), u: &uops[step%len(uops)]}
			th.push(e)
			heap.Push(&rh, e)
			pending++
		} else {
			a := th.pop()
			b := heap.Pop(&rh).(event)
			if a.at != b.at || a.u != b.u {
				t.Fatalf("step %d: typed heap popped {at:%d u:%p}, container/heap popped {at:%d u:%p}",
					step, a.at, a.u, b.at, b.u)
			}
			pending--
		}
	}
	for pending > 0 {
		a := th.pop()
		b := heap.Pop(&rh).(event)
		if a.at != b.at || a.u != b.u {
			t.Fatalf("drain: typed heap popped {at:%d u:%p}, container/heap popped {at:%d u:%p}",
				a.at, a.u, b.at, b.u)
		}
		pending--
	}
}

// --- insertBySeq: sorted insertion replacing the per-cycle sort ---

func TestInsertBySeqKeepsAgeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var q []*uop
	for i := 0; i < 500; i++ {
		u := &uop{seq: uint64(rng.Intn(100))}
		q = insertBySeq(q, u)
	}
	for i := 1; i < len(q); i++ {
		if q[i-1].seq > q[i].seq {
			t.Fatalf("q[%d].seq=%d > q[%d].seq=%d", i-1, q[i-1].seq, i, q[i].seq)
		}
	}
}

func TestInsertBySeqStableOnTies(t *testing.T) {
	// Select-uops share the episode's selExitSeq, so equal-seq entries
	// occur; insertion must keep them in arrival order.
	a, b, c := &uop{seq: 5}, &uop{seq: 5}, &uop{seq: 5}
	var q []*uop
	q = insertBySeq(q, a)
	q = insertBySeq(q, b)
	q = insertBySeq(q, c)
	if q[0] != a || q[1] != b || q[2] != c {
		t.Fatal("equal-seq uops not kept in arrival order")
	}
	d := &uop{seq: 3}
	q = insertBySeq(q, d)
	if q[0] != d || q[1] != a {
		t.Fatal("lower-seq uop not inserted ahead of ties")
	}
}

// --- uop arena ---

func TestArenaRecyclesOnlySafeUops(t *testing.T) {
	m := lsqMachine(t)
	u := m.arena.alloc()
	u.seq = 42
	u.fetchSnap = m.snapFetch()
	pooled, gen := len(m.snapPool), u.gen
	m.recycleFEQ(u)
	if got := m.arena.alloc(); got != u {
		t.Fatal("free-listed uop not reused by next alloc")
	} else if got.seq != 0 || got.fetchSnap != nil {
		t.Fatal("recycled uop not zeroed")
	} else if got.gen != gen+1 {
		t.Fatalf("recycle left generation %d, want %d", got.gen, gen+1)
	}
	if len(m.snapPool) != pooled+1 {
		t.Fatalf("front-end recycle left %d pooled fetch snapshots, want %d", len(m.snapPool), pooled+1)
	}

	// A renamed uop may still be referenced (ROB, RAT, waiters) and must
	// be declined.
	r := m.arena.alloc()
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
		u := a.alloc()
		if seen[u] {
			t.Fatalf("alloc %d returned a live uop twice", i)
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
		u := a.alloc()
		u.seq = uint64(i)
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
		u := a.alloc()
		u.seq = uint64(i)
		a.recycle(u)
	}
}

func BenchmarkEventHeapPushPop(b *testing.B) {
	var h eventHeap
	u := &uop{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Keep ~64 events in flight, like a busy completion queue.
		h.push(event{at: uint64(i % 300), u: u})
		if len(h) > 64 {
			h.pop()
		}
	}
}

func BenchmarkInsertBySeq(b *testing.B) {
	q := make([]*uop, 0, 64)
	us := make([]uop, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u := &us[i%len(us)]
		u.seq = uint64(i)
		q = insertBySeq(q, u)
		if len(q) == cap(q) {
			q = q[:0]
		}
	}
}
