package exp

import (
	"strings"
	"sync"
	"testing"

	"dmp/internal/core"
)

func simOpts() Options {
	return Options{Scale: 1, Benchmarks: []string{"mcf", "perlbmk"}}.norm()
}

// modeConfigs covers every machine organization the experiments compare.
func modeConfigs() map[string]core.Config {
	perfect := core.DefaultConfig()
	perfect.Mode = core.ModePerfect
	dual := core.DefaultConfig()
	dual.Mode = core.ModeDualPath
	return map[string]core.Config{
		"baseline":     core.DefaultConfig(),
		"perfect-cbp":  perfect,
		"dhp":          core.DHPConfig(),
		"basic-dmp":    core.DMPConfig(),
		"enhanced-dmp": core.EnhancedDMPConfig(),
		"dualpath":     dual,
	}
}

// statsEqualModuloWall compares two Stats bit for bit, ignoring only the
// host wall-clock fields that legitimately differ between runs.
func statsEqualModuloWall(a, b *core.Stats) bool {
	x, y := *a, *b
	x.WallSeconds, y.WallSeconds = 0, 0
	return x == y
}

// TestCachedStatsBitIdenticalAllModes pins the cache's core promise: the
// Stats a cache hit returns are bit-identical (modulo wall-clock) to a
// fresh uncached simulation, for every mode the paper compares and for
// the loop-annotated variant.
func TestCachedStatsBitIdenticalAllModes(t *testing.T) {
	Reset()
	o := simOpts()
	for name, cfg := range modeConfigs() {
		for _, bench := range o.Benchmarks {
			fresh, err := simulate(bench, cfg, o)
			if err != nil {
				t.Fatalf("%s/%s fresh: %v", name, bench, err)
			}
			cached, err := RunOne(bench, cfg, o)
			if err != nil {
				t.Fatalf("%s/%s cached: %v", name, bench, err)
			}
			if !statsEqualModuloWall(fresh, cached) {
				t.Errorf("%s/%s: cached stats differ from fresh\ncached: %v\nfresh:  %v", name, bench, cached, fresh)
			}
			again, err := RunOne(bench, cfg, o)
			if err != nil {
				t.Fatalf("%s/%s hit: %v", name, bench, err)
			}
			if again != cached {
				t.Errorf("%s/%s: second lookup returned a different pointer — not a cache hit", name, bench)
			}
		}
	}
	loops := core.EnhancedDMPConfig()
	loops.EnableLoopDiverge = true
	fresh, err := simulate("gzip", loops, o)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := RunOne("gzip", loops, o)
	if err != nil {
		t.Fatal(err)
	}
	if !statsEqualModuloWall(fresh, cached) {
		t.Errorf("loop variant: cached stats differ from fresh")
	}
}

// TestSimCacheDedupAcrossExperiments pins exactly-once simulation: two
// experiments over the same configurations pay for one set of
// simulations, and the second resolves entirely from the cache.
func TestSimCacheDedupAcrossExperiments(t *testing.T) {
	Reset()
	o := simOpts()
	if _, err := Figure11(o); err != nil {
		t.Fatal(err)
	}
	// Figure 11 requests baseline and enhanced DMP over two benchmarks.
	// perlbmk carries no admissible diverge mark at scale 1, so its
	// enhanced machine is its baseline: three simulations, and one
	// request shares one of them.
	if c := simCache.Counts(); c.Misses != 4 || c.Computed != 3 || c.Shared != 1 || c.Hits != 0 {
		t.Fatalf("after Figure11: %+v, want 4 misses, 3 computed, 1 shared, 0 hits", c)
	}
	if hits, misses := SimCounts(); misses != 3 || hits != 1 {
		t.Fatalf("after Figure11: SimCounts hits=%d misses=%d, want 1/3", hits, misses)
	}
	if _, err := Figure12(o); err != nil {
		t.Fatal(err)
	}
	// Figure 12 uses the same two configurations: all hits, no new runs.
	if c := simCache.Counts(); c.Misses != 4 || c.Computed != 3 || c.Hits != 4 {
		t.Fatalf("after Figure12: %+v, want 4 misses, 3 computed, 4 hits", c)
	}
}

// TestSimCacheKeySeparatesVariants pins the key dimensions: loop
// diverge on an annotation-reading machine must never alias, while loop
// diverge on the baseline (which reads no annotations) must.
func TestSimCacheKeySeparatesVariants(t *testing.T) {
	Reset()
	cfg := core.DefaultConfig()
	o := simOpts()
	if _, err := RunOne("mcf", cfg, o); err != nil {
		t.Fatal(err)
	}
	baseLoops := cfg
	baseLoops.EnableLoopDiverge = true
	if _, err := RunOne("mcf", baseLoops, o); err != nil {
		t.Fatal(err)
	}
	if _, misses := SimCounts(); misses != 1 {
		t.Errorf("baseline with loop diverge did not reuse the baseline run: %d misses, want 1", misses)
	}
	enh := core.EnhancedDMPConfig()
	plain, err := RunOne("gzip", enh, o)
	if err != nil {
		t.Fatal(err)
	}
	enh.EnableLoopDiverge = true
	loops, err := RunOne("gzip", enh, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := SimCounts(); misses != 3 {
		t.Errorf("enhanced with/without loop diverge aliased: %d misses, want 3", misses)
	}
	if loops.Episodes <= plain.Episodes {
		t.Errorf("loop diverge ran %d episodes, plain %d: want the loop-marked program's extra episodes", loops.Episodes, plain.Episodes)
	}
}

// TestSimCacheConcurrentExperiments is the -race hammer: several
// experiment generators with overlapping configuration needs run at once
// against a cold cache, and every table must match a serial regeneration.
func TestSimCacheConcurrentExperiments(t *testing.T) {
	Reset()
	o := simOpts()
	gens := []string{"table3", "fig1", "fig11", "fig12", "fig8"}
	tables := make([]*Table, len(gens))
	errs := make([]error, len(gens))
	var wg sync.WaitGroup
	for i, id := range gens {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			tables[i], errs[i] = All[id](o)
		}(i, id)
	}
	wg.Wait()
	for i, id := range gens {
		if errs[i] != nil {
			t.Fatalf("%s: %v", id, errs[i])
		}
	}
	// Everything above needs only baseline, basic-DMP and enhanced-DMP:
	// three configurations, two benchmarks. perlbmk carries no
	// admissible diverge mark at scale 1, so both of its DMP machines
	// are its baseline: four simulations for six requests.
	if c := simCache.Counts(); c.Computed != 4 || c.Shared != 2 {
		t.Errorf("concurrent generators: %+v, want 4 computed and 2 shared", c)
	}
	Reset()
	for i, id := range gens {
		serial, err := All[id](o)
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		if got, want := tables[i].String(), serial.String(); got != want {
			t.Errorf("%s: concurrent table differs from serial:\n--- concurrent\n%s--- serial\n%s", id, got, want)
		}
	}
}

// TestFrozenStatsGuard pins the read-only invariant: mutating a cached
// result is caught on the next hit instead of silently corrupting later
// experiments. Clone is the sanctioned escape hatch.
func TestFrozenStatsGuard(t *testing.T) {
	Reset()
	defer Reset() // do not leak the poisoned entry to other tests
	o := simOpts()
	cfg := core.DefaultConfig()
	st, err := RunOne("mcf", cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	// A Clone may be mutated freely without tripping the guard.
	cl := st.Clone()
	cl.RetiredInsts += 100
	if _, err := RunOne("mcf", cfg, o); err != nil {
		t.Fatalf("hit after mutating a Clone: %v", err)
	}
	// Mutating the shared result itself must be caught.
	st.RetiredInsts++
	defer func() {
		r := recover()
		if r == nil {
			t.Error("mutated cached Stats not caught")
		} else if !strings.Contains(r.(string), "frozen") {
			t.Errorf("unexpected panic: %v", r)
		}
	}()
	RunOne("mcf", cfg, o)
}
