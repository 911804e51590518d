package bpred

import "testing"

func TestBTBInsertLookup(t *testing.T) {
	b := NewBTB(4096, 4)
	if _, ok := b.Lookup(100); ok {
		t.Error("empty BTB hit")
	}
	b.Insert(100, 200)
	tgt, ok := b.Lookup(100)
	if !ok || tgt != 200 {
		t.Errorf("lookup = %d,%v", tgt, ok)
	}
	b.Insert(100, 300) // update in place
	tgt, _ = b.Lookup(100)
	if tgt != 300 {
		t.Errorf("updated target = %d", tgt)
	}
}

func TestBTBConflictEviction(t *testing.T) {
	b := NewBTB(8, 2)         // 4 sets, 2-way: three conflicting PCs evict one
	pcs := []uint64{4, 8, 12} // all map to set 0
	for i, pc := range pcs {
		b.Insert(pc, uint64(1000+i))
	}
	hits := 0
	for _, pc := range pcs {
		if _, ok := b.Lookup(pc); ok {
			hits++
		}
	}
	if hits != 2 {
		t.Errorf("hits = %d, want 2 (one LRU eviction)", hits)
	}
}

func TestBTBBadGeometryPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewBTB(0, 1) },
		func() { NewBTB(7, 2) },
		func() { NewBTB(12, 4) }, // 3 sets, not power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad BTB geometry did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestRASPushPop(t *testing.T) {
	r := NewRAS(4)
	r.Push(10)
	r.Push(20)
	if r.Pop() != 20 || r.Pop() != 10 {
		t.Error("RAS order wrong")
	}
	if r.Pop() != 0 {
		t.Error("empty RAS pop != 0")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if r.Pop() != 3 || r.Pop() != 2 {
		t.Error("RAS wrap order wrong")
	}
	// The overwritten entry is gone; count is exhausted.
	if r.Pop() != 0 {
		t.Error("RAS did not exhaust after wrap")
	}
}

func TestRASSnapshotRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(1)
	r.Push(2)
	var snap RASState
	r.SnapshotInto(&snap)
	r.Pop()
	r.Push(99)
	r.Push(98)
	r.Restore(snap)
	if r.Pop() != 2 || r.Pop() != 1 {
		t.Error("restore did not rewind RAS")
	}
}

func TestITC(t *testing.T) {
	c := NewITC(10)
	if c.Lookup(5, 0) != 0 {
		t.Error("empty ITC lookup != 0")
	}
	c.Update(5, 0b1010, 777)
	if c.Lookup(5, 0b1010) != 777 {
		t.Error("ITC lookup after update failed")
	}
	// Different history indexes a different entry (usually).
	c.Update(5, 0, 111)
	if c.Lookup(5, 0b1010) != 777 {
		t.Error("ITC history aliasing clobbered entry")
	}
}
