package cache

import (
	"fmt"
	"sort"
	"testing"
)

// refCache is the cache without the previous-line memo: every access
// searches its set and stamps it, and Clone deep-copies the sets. It is
// kept as the reference the repeat-line hit must match.
type refCache struct {
	sets         [][]line
	setMask      uint64
	lineSh       uint
	setSh        uint
	clock        uint64
	hits, misses uint64
}

func newRefCache(cfg Config) *refCache {
	c := New(cfg) // same geometry checks and shifts
	r := &refCache{sets: make([][]line, c.sets.Len()), setMask: c.setMask, lineSh: c.lineSh, setSh: c.setSh}
	for i := range r.sets {
		r.sets[i] = make([]line, cfg.Assoc)
	}
	return r
}

func (r *refCache) access(addr uint64) bool {
	lineAddr := addr >> r.lineSh
	set := r.sets[lineAddr&r.setMask]
	tag := lineAddr >> r.setSh
	r.clock++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = r.clock
			r.hits++
			return true
		}
	}
	r.misses++
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
	set[victim] = line{valid: true, tag: tag, lru: r.clock}
	return false
}

func (r *refCache) clone() *refCache {
	n := *r
	n.sets = make([][]line, len(r.sets))
	for i, s := range r.sets {
		n.sets[i] = append([]line(nil), s...)
	}
	return &n
}

// sameSet reports how set s of c differs from the reference's: each way
// must hold the same valid bit and tag, and the valid ways must stand in
// the same LRU order. The stamps themselves differ, because a repeat-line
// hit does not advance the clock.
func sameSet(c *Cache, r *refCache, s int) error {
	got, want := c.sets.RO(s), r.sets[s]
	for w := range want {
		if got[w].valid != want[w].valid || got[w].valid && got[w].tag != want[w].tag {
			return fmt.Errorf("set %d way %d: valid %v tag %#x, reference valid %v tag %#x",
				s, w, got[w].valid, got[w].tag, want[w].valid, want[w].tag)
		}
	}
	order := func(ls []line) []int {
		var ways []int
		for w := range ls {
			if ls[w].valid {
				ways = append(ways, w)
			}
		}
		sort.Slice(ways, func(i, j int) bool { return ls[ways[i]].lru < ls[ways[j]].lru })
		return ways
	}
	if g, w := order(got), order(want); fmt.Sprint(g) != fmt.Sprint(w) {
		return fmt.Errorf("set %d LRU order (oldest first) %v, reference %v", s, g, w)
	}
	return nil
}

// TestRepeatLineMatchesReference drives caches and memo-free reference
// caches in lockstep over random streams with runs of same-line repeats,
// across direct-mapped and associative geometries. Clones are taken
// along the way, and parents and clones all keep accessing afterwards.
// Every access must hit or miss as in the reference, the counters must
// agree, and at the end every set of every instance must hold the same
// lines in the same LRU order.
func TestRepeatLineMatchesReference(t *testing.T) {
	cfgs := []Config{
		{SizeBytes: 512, Assoc: 1, LineBytes: 64, Latency: 1},
		{SizeBytes: 1024, Assoc: 2, LineBytes: 64, Latency: 2},
		{SizeBytes: 2048, Assoc: 4, LineBytes: 32, Latency: 2},
		{SizeBytes: 64, Assoc: 2, LineBytes: 2, Latency: 1},
	}
	for _, cfg := range cfgs {
		t.Run(fmt.Sprintf("%dB-%dway-%dB", cfg.SizeBytes, cfg.Assoc, cfg.LineBytes), func(t *testing.T) {
			s := uint64(cfg.SizeBytes*131 + cfg.Assoc)
			next := func() uint64 { // splitmix64
				s += 0x9e3779b97f4a7c15
				z := s
				z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
				z = (z ^ z>>27) * 0x94d049bb133111eb
				return z ^ z>>31
			}
			type pair struct {
				c    *Cache
				r    *refCache
				prev uint64
			}
			pairs := []*pair{{c: New(cfg), r: newRefCache(cfg)}}
			// Three times as many lines as the cache holds, so sets keep
			// evicting, and the line just accessed is often the victim of
			// the next miss in a direct-mapped or 2-way cache.
			nlines := uint64(3 * cfg.SizeBytes / cfg.LineBytes)
			line := uint64(cfg.LineBytes)
			for i := 0; i < 200_000; i++ {
				r := next()
				if r%2000 == 0 && len(pairs) < 8 {
					src := pairs[r/2000%uint64(len(pairs))]
					pairs = append(pairs, &pair{c: src.c.Clone(), r: src.r.clone(), prev: src.prev})
				}
				p := pairs[r>>16%uint64(len(pairs))]
				addr := (r >> 24 % nlines) * line
				if r>>8&3 != 0 { // mostly a repeat: the same line at another offset
					addr = p.prev&^(line-1) | r>>40%line
				}
				p.prev = addr
				if got, want := p.c.Access(addr), p.r.access(addr); got != want {
					t.Fatalf("access %d (%#x): hit %v, reference %v", i, addr, got, want)
				}
			}
			for k, p := range pairs {
				if p.c.Hits != p.r.hits || p.c.Misses != p.r.misses {
					t.Errorf("instance %d: hits/misses %d/%d, reference %d/%d", k, p.c.Hits, p.c.Misses, p.r.hits, p.r.misses)
				}
				for set := range p.r.sets {
					if err := sameSet(p.c, p.r, set); err != nil {
						t.Fatalf("instance %d: %v", k, err)
					}
				}
			}
			if len(pairs) < 4 {
				t.Errorf("only %d instances; the stream must exercise clones", len(pairs))
			}
		})
	}
}
