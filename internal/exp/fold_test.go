package exp

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"dmp/internal/core"
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
	st, _, err := simulate("mcf", core.DefaultConfig(), o, nil)
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
// DHP and enhanced DMP machines: each enhancement toggled alone, the
// dynamic and hybrid CFM sources (mergeSizes adds the merge-table sizes
// around a run's peak occupancy), loop diverge, the alternate path's
// history and the always-low confidence estimator. The last three are
// knobs no evidence vouches for: varied from basic DMP and DHP they go
// to the fold check only (foldOnly), which keeps them there without
// multiplying the families TestEvidenceIsExact compares.
func knobSweep() (sweep, foldOnly []core.Config) {
	for _, base := range []core.Config{core.DMPConfig(), core.DHPConfig(), core.EnhancedDMPConfig()} {
		edits := []func(*core.Config){
			func(*core.Config) {},
			func(c *core.Config) { c.MultipleCFM = !c.MultipleCFM },
			func(c *core.Config) { c.EarlyExit = !c.EarlyExit },
			func(c *core.Config) { c.MultipleDiverge = !c.MultipleDiverge },
			func(c *core.Config) { c.CFMSource = "dynamic" },
			func(c *core.Config) { c.CFMSource = "hybrid" },
		}
		others := []func(*core.Config){
			func(c *core.Config) { c.EnableLoopDiverge = true },
			func(c *core.Config) { c.KeepAlternateGHR = true },
			func(c *core.Config) { c.ConfidenceName = "always-low" },
		}
		for _, edit := range edits {
			c := base
			edit(&c)
			sweep = append(sweep, c)
		}
		for _, edit := range others {
			c := base
			edit(&c)
			if base.MultipleCFM {
				sweep = append(sweep, c)
			} else {
				foldOnly = append(foldOnly, c)
			}
		}
	}
	return sweep, foldOnly
}

// mergeSizes returns cfg, a DMP configuration with a dynamic or hybrid
// CFM source, at merge-table sizes one below, at and one above peak.
func mergeSizes(cfg core.Config, peak int) []core.Config {
	var cfgs []core.Config
	for _, n := range []int{peak - 1, peak, peak + 1} {
		if n > 0 {
			c := cfg
			c.MergeTableSize = n
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

// foldCase is one program the differential tests run on.
type foldCase struct {
	bench string
	scale int
}

// soloKey names one configuration's own run on one program.
type soloKey struct {
	c   foldCase
	cfg core.Config
}

// soloRun is a configuration's own run: its Stats and knob evidence.
type soloRun struct {
	st  *core.Stats
	ev  core.Evidence
	err error
}

// solos memoizes solo runs for the whole test process: the differential
// tests and TestShareCountsOrderIndependent ask for many of the same.
var solos sync.Map // soloKey -> *soloEntry

type soloEntry struct {
	once sync.Once
	r    soloRun
}

// solo returns k's run, simulating it on first request.
func solo(k soloKey) soloRun {
	v, _ := solos.LoadOrStore(k, &soloEntry{})
	e := v.(*soloEntry)
	e.once.Do(func() {
		e.r.st, e.r.ev, e.r.err = simulate(k.c.bench, k.cfg, Options{Scale: k.c.scale}, nil)
		if e.r.err != nil {
			e.r.err = fmt.Errorf("%s scale %d %+v: %w", k.c.bench, k.c.scale, k.cfg, e.r.err)
		}
	})
	return e.r
}

// differential is the workload TestFoldForIsExact and TestEvidenceIsExact
// share: for every case, the canonical configurations checked on it (the
// experiments' requests and the knob sweep), those of them the family
// check covers, and the solo runs the checks compare.
type differential struct {
	cases  []foldCase
	cfgs   map[foldCase][]core.Config
	family map[foldCase]map[core.Config]bool
	need   map[soloKey]bool
	err    error
}

var (
	diffOnce sync.Once
	diffRuns differential
)

// differentialRuns builds (once per process) the shared workload: the
// fifteen benchmarks at scales 1 and 3 (-short drops scale 3) and twenty
// generated programs at scale 1. A configuration is simulated when a
// check needs it: it folds further than Canonical (FoldFor), it is the
// fold of one, or it is in the family check (not foldOnly) and its
// simulation key shares a Family with another there. The
// merge-table sizes around each dynamic and hybrid sweep run's peak
// occupancy are added once those runs are in.
func differentialRuns(t *testing.T) *differential {
	t.Helper()
	diffOnce.Do(func() {
		d := &diffRuns
		requested := requestedConfigs(t)
		scales := []int{1, 3}
		if testing.Short() {
			scales = scales[:1]
		}
		for _, scale := range scales {
			for _, b := range workload.Names() {
				d.cases = append(d.cases, foldCase{b, scale})
			}
		}
		for seed := 1; seed <= 20; seed++ {
			d.cases = append(d.cases, foldCase{fmt.Sprintf("%s%d", workload.GenPrefix, seed), 1})
		}
		d.cfgs = map[foldCase][]core.Config{}
		d.family = map[foldCase]map[core.Config]bool{}
		d.need = map[soloKey]bool{}
		sweep, foldOnly := knobSweep()
		for _, c := range d.cases {
			d.add(c, append(append([]core.Config(nil), requested...), sweep...), true)
			d.add(c, foldOnly, false)
		}
		if d.err = d.simulate(); d.err != nil {
			return
		}
		for _, c := range d.cases {
			var more []core.Config
			for _, cfg := range sweep {
				if cfg.CFMSource == "annotated" || cfg.Mode != core.ModeDMP {
					continue
				}
				peak := solo(soloKey{c, d.simKey(c, cfg)}).ev.MergePeak
				more = append(more, mergeSizes(cfg, peak)...)
			}
			d.add(c, more, true)
		}
		d.err = d.simulate()
	})
	if diffRuns.err != nil {
		t.Fatal(diffRuns.err)
	}
	return &diffRuns
}

// simKey returns cfg's simulation key on case c (its fold for c's program).
func (d *differential) simKey(c foldCase, cfg core.Config) core.Config {
	return cfg.FoldFor(programFor(c.bench, c.scale, cfg).p)
}

// add records cfgs (canonicalized, without repeats) for case c and marks
// the runs the checks need: both sides of every fold, and, where family
// is set, the configurations join the family check, whose families with
// more than one simulation key need every run.
func (d *differential) add(c foldCase, cfgs []core.Config, family bool) {
	seen := map[core.Config]bool{}
	for _, cfg := range d.cfgs[c] {
		seen[cfg] = true
	}
	if d.family[c] == nil {
		d.family[c] = map[core.Config]bool{}
	}
	for _, cfg := range cfgs {
		canon := cfg.Canonical()
		if !seen[canon] {
			seen[canon] = true
			d.cfgs[c] = append(d.cfgs[c], canon)
		}
		if family {
			d.family[c][canon] = true
		}
	}
	members := map[core.Config]map[core.Config]bool{}
	for _, canon := range d.cfgs[c] {
		f := d.simKey(c, canon)
		if f != canon {
			d.need[soloKey{c, canon}] = true
			d.need[soloKey{c, f}] = true
		}
		if !d.family[c][canon] {
			continue
		}
		if members[f.Family()] == nil {
			members[f.Family()] = map[core.Config]bool{}
		}
		members[f.Family()][f] = true
	}
	for _, keys := range members {
		if len(keys) > 1 {
			for f := range keys {
				d.need[soloKey{c, f}] = true
			}
		}
	}
}

// simulate runs every needed solo run, on every CPU.
func (d *differential) simulate() error {
	work := make(chan soloKey)
	errs := make(chan error, len(d.need))
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				errs <- solo(k).err
			}
		}()
	}
	for k := range d.need {
		work <- k
	}
	close(work)
	wg.Wait()
	close(errs)
	var all []error
	for err := range errs {
		all = append(all, err)
	}
	return errors.Join(all...)
}

// TestFoldForIsExact is the differential test behind the result cache's
// static simulation sharing: wherever Config.FoldFor folds a
// configuration further than Canonical, the configuration and its fold
// must give bit-identical Stats on the program it runs on. It covers
// every configuration the experiments request and a sweep of each
// predication knob (differentialRuns). It also checks that sampled,
// dual-path and perfect-CBP configurations are never folded.
func TestFoldForIsExact(t *testing.T) {
	d := differentialRuns(t)
	folded := 0
	for _, c := range d.cases {
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
			if got := d.simKey(c, u); got != u.Canonical() {
				t.Errorf("%s scale %d: %v config folded to %+v", c.bench, c.scale, u.Mode, got)
			}
		}
		for _, canon := range d.cfgs[c] {
			f := d.simKey(c, canon)
			if f == canon {
				continue
			}
			folded++
			if f != d.simKey(c, f) {
				t.Errorf("%s scale %d: FoldFor is not idempotent on %+v", c.bench, c.scale, f)
			}
			a, b := solo(soloKey{c, canon}).st, solo(soloKey{c, f}).st
			if *a != *b {
				t.Errorf("%s scale %d: %+v folds to %+v, but their Stats differ\nconfig: %v\nfolded: %v",
					c.bench, c.scale, canon, f, a, b)
			}
		}
	}
	if folded == 0 {
		t.Fatal("no configuration folded: the test checks nothing")
	}
	t.Logf("%d folded configurations checked", folded)
}

// TestEvidenceIsExact is the differential test behind sharing on run-time
// evidence: wherever a run's knob evidence answers another simulation key
// of its family on the same program (core.Evidence.Answers), that key's
// solo run must give bit-identical Stats and record equal evidence (which
// makes "answers" an equivalence relation, and the result cache's
// simulation count independent of request order). Its inputs are the
// configurations the experiments request and a sweep of each predication
// knob (differentialRuns): each enhancement toggled alone, DHP and DMP,
// and merge-table sizes around each run's peak occupancy.
func TestEvidenceIsExact(t *testing.T) {
	d := differentialRuns(t)
	pairs, answered, runs := 0, 0, 0
	for _, c := range d.cases {
		families := map[core.Config][]core.Config{}
		seen := map[core.Config]bool{}
		for _, canon := range d.cfgs[c] {
			f := d.simKey(c, canon)
			if d.family[c][canon] && !seen[f] {
				seen[f] = true
				families[f.Family()] = append(families[f.Family()], f)
			}
		}
		for _, keys := range families {
			if len(keys) < 2 {
				continue
			}
			runs += len(keys)
			for _, a := range keys {
				ra := solo(soloKey{c, a})
				if (a.Mode == core.ModeDMP || a.Mode == core.ModeDHP) && !a.SampleMode && !ra.ev.Recorded {
					t.Errorf("%s scale %d: the run of %+v recorded no evidence", c.bench, c.scale, a)
				}
				for _, b := range keys {
					if a == b {
						continue
					}
					pairs++
					if !ra.ev.Answers(a, b) {
						continue
					}
					answered++
					rb := solo(soloKey{c, b})
					if *ra.st != *rb.st || ra.ev != rb.ev {
						t.Errorf("%s scale %d: the run of %+v answers %+v, but their runs differ\nran:  %v %+v\nsolo: %v %+v",
							c.bench, c.scale, a, b, ra.st, ra.ev, rb.st, rb.ev)
					}
				}
			}
		}
	}
	if answered == 0 || answered == pairs {
		t.Fatalf("evidence answered %d of %d pairs: want some answered and some not", answered, pairs)
	}
	t.Logf("evidence answered %d of %d ordered pairs over %d runs; %d solo runs in all", answered, pairs, runs, len(d.need))
}
