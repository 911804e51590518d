package exp

import (
	"sync"
	"testing"

	"dmp/internal/core"
)

// runWith simulates bench on the given (possibly shared) program.
func runWith(t *testing.T, bench string, cfg core.Config, fresh bool) *core.Stats {
	t.Helper()
	p, err := Annotated(bench, 1)
	if fresh {
		p, err = buildAnnotated(bench, 1, false)
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckRetirement = true
	m, err := core.New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCachedAnnotatedMatchesFresh pins the sharing invariant documented
// in cache.go: a machine running on the memoized program must produce
// bit-identical architectural results to one running on a freshly built
// program, under every mode that reads diverge annotations. If this
// fails, something mutated a cached Program after publication.
func TestCachedAnnotatedMatchesFresh(t *testing.T) {
	resetProgramCache()
	cfgs := map[string]core.Config{
		"baseline":     core.DefaultConfig(),
		"dhp":          core.DHPConfig(),
		"enhanced-dmp": core.EnhancedDMPConfig(),
	}
	for name, cfg := range cfgs {
		for _, bench := range []string{"mcf", "gcc"} {
			cached := runWith(t, bench, cfg, false)
			fresh := runWith(t, bench, cfg, true)
			if cached.Cycles != fresh.Cycles ||
				cached.RetiredInsts != fresh.RetiredInsts ||
				cached.IPC() != fresh.IPC() {
				t.Errorf("%s/%s: cached (cycles=%d insts=%d ipc=%v) != fresh (cycles=%d insts=%d ipc=%v)",
					name, bench, cached.Cycles, cached.RetiredInsts, cached.IPC(),
					fresh.Cycles, fresh.RetiredInsts, fresh.IPC())
			}
		}
	}
}

// TestFigure6LeavesCacheIntact guards the one consumer that re-profiles:
// Figure6 must profile a private build, never the cached program, or the
// cached annotations silently become ref-derived for every later user.
func TestFigure6LeavesCacheIntact(t *testing.T) {
	resetProgramCache()
	p, err := Annotated("mcf", 1)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]uint64(nil), p.DivergePCs()...)
	if _, err := Figure6(Options{Scale: 1, Benchmarks: []string{"mcf"}}); err != nil {
		t.Fatal(err)
	}
	after := p.DivergePCs()
	if len(before) != len(after) {
		t.Fatalf("Figure6 changed cached diverge marks: %d before, %d after", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("Figure6 changed cached diverge mark %d: %#x -> %#x", i, before[i], after[i])
		}
	}
}

// TestParallelSuitesShareCache runs several suites concurrently against
// one cold cache. Under -race this is the regression test for the
// build-once memoization: every worker of every suite hits
// programEntry at once, and all must agree with a serial run.
func TestParallelSuitesShareCache(t *testing.T) {
	Reset()
	o := Options{Scale: 1, Benchmarks: []string{"mcf", "twolf", "perlbmk"}}
	want, err := runSuite(core.DMPConfig(), o)
	if err != nil {
		t.Fatal(err)
	}
	// Full Reset (programs AND results): the point is that concurrent
	// suites rebuild and re-simulate from cold, racing on both caches.
	Reset()
	const suites = 4
	got := make([][]*core.Stats, suites)
	errs := make([]error, suites)
	var wg sync.WaitGroup
	for i := 0; i < suites; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = runSuite(core.DMPConfig(), o)
		}(i)
	}
	wg.Wait()
	for i := 0; i < suites; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for j := range want {
			if got[i][j].Cycles != want[j].Cycles || got[i][j].RetiredInsts != want[j].RetiredInsts {
				t.Errorf("suite %d, %s: cycles=%d insts=%d, want cycles=%d insts=%d",
					i, o.Benchmarks[j], got[i][j].Cycles, got[i][j].RetiredInsts,
					want[j].Cycles, want[j].RetiredInsts)
			}
		}
	}
}

// TestCheckerPassesAllWorkloadsWithArena runs every workload under
// enhanced DMP with the golden-model retirement checker on. The arena
// recycles fetch-queue uops; any recycle of a still-referenced uop shows
// up here as a retirement divergence.
func TestCheckerPassesAllWorkloadsWithArena(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite; skipped in -short")
	}
	if _, err := runSuite(core.EnhancedDMPConfig(), Options{Scale: 1}.norm()); err != nil {
		t.Fatal(err)
	}
}
