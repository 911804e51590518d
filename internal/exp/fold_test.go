package exp

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"dmp/internal/core"
	"dmp/internal/isa"
	"dmp/internal/sched"
	"dmp/internal/workload"
)

// recordingBacking answers every result-cache miss with one canned Stats
// and records the request's configuration, so the experiments can be
// walked for the configurations they ask for without simulating them.
type recordingBacking struct {
	st   *core.Stats
	mu   sync.Mutex
	cfgs map[core.Config]bool
}

func (r *recordingBacking) Load(k sched.Key) (*core.Stats, bool) {
	r.mu.Lock()
	r.cfgs[k.Cfg] = true
	r.mu.Unlock()
	return r.st, true
}

func (r *recordingBacking) Store(sched.Key, *core.Stats) {}

// requestedConfigs returns every canonical configuration the experiments
// send through RunOne. The set does not depend on the benchmark or the
// scale, so one benchmark at scale 1 walks it. Figure 6 profiles instead
// of simulating, and the sampling table's exact runs are the enhanced
// machine, which Figure 10 already asks for.
func requestedConfigs(t *testing.T) []core.Config {
	t.Helper()
	o := Options{Scale: 1, Benchmarks: []string{"mcf"}}.norm()
	st, err := simulate("mcf", core.DefaultConfig(), o)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingBacking{st: st, cfgs: map[core.Config]bool{}}
	ResetResults()
	simCache.SetBacking(rec)
	defer func() {
		simCache.SetBacking(nil)
		ResetResults()
	}()
	for _, id := range IDs() {
		if id == "fig6" || id == "sampling" {
			continue
		}
		if _, err := All[id](o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	cfgs := make([]core.Config, 0, len(rec.cfgs))
	for c := range rec.cfgs {
		cfgs = append(cfgs, c)
	}
	sort.Slice(cfgs, func(i, j int) bool { return fmt.Sprint(cfgs[i]) < fmt.Sprint(cfgs[j]) })
	return cfgs
}

// knobSweep varies each predication knob on its own from the basic DMP,
// DHP and enhanced DMP machines, with the merge-table size one below, at
// and one above brs, the number of conditional branches in the code
// image.
func knobSweep(brs int) []core.Config {
	var cfgs []core.Config
	for _, base := range []core.Config{core.DMPConfig(), core.DHPConfig(), core.EnhancedDMPConfig()} {
		edits := []func(*core.Config){
			func(*core.Config) {},
			func(c *core.Config) { c.MultipleCFM = !c.MultipleCFM },
			func(c *core.Config) { c.EarlyExit = !c.EarlyExit },
			func(c *core.Config) { c.EarlyExit, c.EarlyExitDefault = true, 8 },
			func(c *core.Config) { c.MultipleDiverge = !c.MultipleDiverge },
			func(c *core.Config) { c.EnableLoopDiverge = true },
			func(c *core.Config) { c.SelectiveBPUpdate = true },
			func(c *core.Config) { c.KeepAlternateGHR = true },
			func(c *core.Config) { c.ConfidenceName = "always-low" },
		}
		for _, src := range []string{"dynamic", "hybrid"} {
			edits = append(edits, func(c *core.Config) { c.CFMSource = src })
			for _, n := range []int{brs - 1, brs, brs + 1} {
				if n > 0 {
					edits = append(edits, func(c *core.Config) { c.CFMSource, c.MergeTableSize = src, n })
				}
			}
		}
		for _, edit := range edits {
			c := base
			edit(&c)
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

// foldCase is one program the fold is checked on.
type foldCase struct {
	bench string
	scale int
}

// TestFoldForIsExact is the differential test behind the result cache's
// simulation sharing: wherever Config.FoldFor folds a configuration
// further than Canonical, the configuration and its fold must give
// bit-identical Stats (host time aside) on the program it runs on. It
// covers every configuration the experiments request and a sweep of
// each predication knob, on the fifteen benchmarks at scales 1 and 3
// and on twenty generated programs (-short drops scale 3). It also
// checks that sampled, dual-path and perfect-CBP configurations are
// never folded.
func TestFoldForIsExact(t *testing.T) {
	requested := requestedConfigs(t)
	scales := []int{1, 3}
	if testing.Short() {
		scales = scales[:1]
	}
	var cases []foldCase
	for _, scale := range scales {
		for _, b := range workload.Names() {
			cases = append(cases, foldCase{b, scale})
		}
	}
	for seed := 1; seed <= 20; seed++ {
		cases = append(cases, foldCase{fmt.Sprintf("%s%d", workload.GenPrefix, seed), 1})
	}

	type pair struct {
		c     foldCase
		cfg   core.Config
		folds core.Config
	}
	var pairs []pair
	folded := 0
	for _, c := range cases {
		plain := programFor(c.bench, c.scale, core.DefaultConfig())
		if plain.err != nil {
			t.Fatalf("%s scale %d: %v", c.bench, c.scale, plain.err)
		}
		brs := 0
		for _, in := range plain.p.Code {
			if in.Op == isa.BR {
				brs++
			}
		}
		unfolded := []core.Config{core.DefaultConfig()}
		for _, m := range []core.Mode{core.ModePerfect, core.ModeDualPath} {
			u := core.EnhancedDMPConfig()
			u.Mode = m
			unfolded = append(unfolded, u)
		}
		s := core.EnhancedDMPConfig()
		s.SampleMode = true
		unfolded = append(unfolded, s)
		for _, u := range unfolded {
			pe := programFor(c.bench, c.scale, u)
			if got := u.FoldFor(pe.p); got != u.Canonical() {
				t.Errorf("%s scale %d: %v config folded to %+v", c.bench, c.scale, u.Mode, got)
			}
		}
		seen := map[core.Config]bool{}
		for _, cfg := range append(append([]core.Config(nil), requested...), knobSweep(brs)...) {
			canon := cfg.Canonical()
			if seen[canon] {
				continue
			}
			seen[canon] = true
			pe := programFor(c.bench, c.scale, cfg)
			if pe.err != nil {
				t.Fatalf("%s scale %d: %v", c.bench, c.scale, pe.err)
			}
			f := cfg.FoldFor(pe.p)
			if f == canon {
				continue
			}
			if f != f.FoldFor(programFor(c.bench, c.scale, f).p) {
				t.Errorf("%s scale %d: FoldFor is not idempotent on %+v", c.bench, c.scale, f)
			}
			pairs = append(pairs, pair{c, canon, f})
			folded++
		}
	}
	if folded == 0 {
		t.Fatal("no configuration folded: the test checks nothing")
	}

	// Simulate each distinct (program, configuration) once, on every CPU.
	type runKey struct {
		c   foldCase
		cfg core.Config
	}
	runs := map[runKey]*core.Stats{}
	var todo []runKey
	for _, p := range pairs {
		for _, k := range []runKey{{p.c, p.cfg}, {p.c, p.folds}} {
			if _, ok := runs[k]; !ok {
				runs[k] = nil
				todo = append(todo, k)
			}
		}
	}
	var mu sync.Mutex
	work := make(chan runKey)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				st, err := simulate(k.c.bench, k.cfg, Options{Scale: k.c.scale})
				if err != nil {
					t.Errorf("%s scale %d %+v: %v", k.c.bench, k.c.scale, k.cfg, err)
					continue
				}
				mu.Lock()
				runs[k] = st
				mu.Unlock()
			}
		}()
	}
	for _, k := range todo {
		work <- k
	}
	close(work)
	wg.Wait()

	for _, p := range pairs {
		a, b := runs[runKey{p.c, p.cfg}], runs[runKey{p.c, p.folds}]
		if a == nil || b == nil {
			continue
		}
		if !statsEqualModuloWall(a, b) {
			t.Errorf("%s scale %d: %+v folds to %+v, but their Stats differ\nconfig: %v\nfolded: %v",
				p.c.bench, p.c.scale, p.cfg, p.folds, a, b)
		}
	}
	t.Logf("%d folded configurations checked with %d simulations", folded, len(todo))
}
