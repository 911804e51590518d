package cache

import "testing"

func TestColdMissThenHit(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Assoc: 2, LineBytes: 64, Latency: 2})
	if c.Access(0x100) {
		t.Error("cold access hit")
	}
	if !c.Access(0x100) {
		t.Error("second access missed")
	}
	if !c.Access(0x13F) {
		t.Error("same-line access missed")
	}
	if c.Access(0x140) {
		t.Error("next-line access hit cold")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 sets x 2 ways, 64B lines. Three lines in the same set: the LRU
	// one is evicted.
	c := New(Config{SizeBytes: 256, Assoc: 2, LineBytes: 64, Latency: 1})
	a, b, d := uint64(0), uint64(128), uint64(256) // all set 0
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU
	c.Access(d) // evicts b
	if !c.Access(a) {
		t.Error("a evicted (should have been MRU)")
	}
	if c.Access(b) {
		t.Error("b survived (should have been evicted)")
	}
}

func TestCacheGeometryPanics(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Assoc: 1, LineBytes: 64},
		{SizeBytes: 1024, Assoc: 1, LineBytes: 63},
		{SizeBytes: 192, Assoc: 1, LineBytes: 64}, // 3 sets
		{SizeBytes: 64, Assoc: 1, LineBytes: 1},   // no spare bit for the empty memo
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	// Cold: L1 miss, L2 miss -> 2+10+300.
	if got := h.DataLatency(0x4000); got != 312 {
		t.Errorf("cold data latency = %d, want 312", got)
	}
	// Warm L1.
	if got := h.DataLatency(0x4000); got != 2 {
		t.Errorf("L1 hit latency = %d, want 2", got)
	}
	// Instruction side: the L2 is unified, so the line warmed by the data
	// access hits in L2 (L1I miss + L2 hit).
	if got := h.InstLatency(0x4000); got != 12 {
		t.Errorf("inst latency after data warm = %d, want 12", got)
	}
	if got := h.InstLatency(0x4000); got != 2 {
		t.Errorf("warm inst latency = %d, want 2", got)
	}
	// A line nobody touched misses all the way to memory.
	if got := h.InstLatency(0x80000); got != 312 {
		t.Errorf("cold inst latency = %d, want 312", got)
	}
}

func TestHierarchyL2HitPath(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.L1D = Config{SizeBytes: 128, Assoc: 1, LineBytes: 64, Latency: 2}
	h := NewHierarchy(cfg)
	h.DataLatency(0)   // cold fill L1+L2
	h.DataLatency(128) // evicts line 0 from tiny direct-mapped L1 (set 0)
	if got := h.DataLatency(0); got != 12 {
		t.Errorf("L2 hit latency = %d, want 2+10", got)
	}
}

func TestDefaultHierarchyMatchesTable2(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	if cfg.L1I.SizeBytes != 64<<10 || cfg.L1I.Assoc != 2 || cfg.L1I.Latency != 2 {
		t.Error("L1I config != Table 2")
	}
	if cfg.L1D.SizeBytes != 64<<10 || cfg.L1D.Assoc != 4 || cfg.L1D.Latency != 2 {
		t.Error("L1D config != Table 2")
	}
	if cfg.L2.SizeBytes != 1<<20 || cfg.L2.Assoc != 8 || cfg.L2.Latency != 10 {
		t.Error("L2 config != Table 2")
	}
	if cfg.MemLatency != 300 {
		t.Error("memory latency != 300")
	}
	if cfg.L1I.LineBytes != 64 || cfg.L1D.LineBytes != 64 || cfg.L2.LineBytes != 64 {
		t.Error("line size != 64B")
	}
}

func TestLargeStrideThrashing(t *testing.T) {
	// Strided accesses covering more lines than the cache holds must keep
	// missing on a second pass.
	c := New(Config{SizeBytes: 1024, Assoc: 2, LineBytes: 64, Latency: 1})
	for pass := 0; pass < 2; pass++ {
		for i := uint64(0); i < 64; i++ {
			c.Access(i * 64)
		}
	}
	if c.Hits != 0 {
		t.Errorf("thrash pattern produced %d hits", c.Hits)
	}
	if c.Misses != 128 {
		t.Errorf("misses = %d, want 128", c.Misses)
	}
}
