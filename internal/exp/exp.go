// Package exp regenerates every table and figure of the paper's
// evaluation (Section 4) on the synthetic workload suite: the baseline
// characterisation (Table 3, Figure 1), the misprediction taxonomy
// (Figure 6), basic and enhanced diverge-merge performance (Figures
// 7-12), the window/depth sensitivity studies (Figure 13), and the
// selective dual-path comparison of Section 5.3.
//
// Absolute numbers differ from the paper — the workloads are synthetic
// stand-ins for SPEC CPU2000 — but each experiment preserves the
// qualitative shape the paper argues from; EXPERIMENTS.md records
// paper-vs-measured for every row.
package exp

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"strings"
	"sync"

	"dmp/internal/core"
	"dmp/internal/profile"
	"dmp/internal/prog"
	"dmp/internal/telemetry"
	"dmp/internal/workload"
)

// Options controls experiment scale.
type Options struct {
	// Scale multiplies workload loop counts (default 3).
	Scale int
	// Benchmarks restricts the suite (default: all fifteen).
	Benchmarks []string
	// Parallel bounds simulation worker goroutines (default NumCPU).
	// The cap is process-level, shared by every concurrently running
	// experiment: the first run fixes the pool size (see simcache.go).
	Parallel int
	// Sample overrides the sampling experiment's operating point (the
	// zero point = per-benchmark operating points, see sampling.go). It
	// affects no other experiment. Setting ANY of its knobs disables the
	// per-benchmark points for the whole run, so an explicit operating
	// point is exactly what runs.
	Sample core.SamplePoint
	// Span, when non-nil, is the telemetry parent span for this
	// experiment's simulations (each runs as an async child on its own
	// trace lane). It is host-side observability only: never part of any
	// cache key, never consulted by the simulator.
	Span *telemetry.Span
}

// DefaultOptions returns the standard experiment configuration.
func DefaultOptions() Options {
	return Options{Scale: 3}
}

func (o Options) norm() Options {
	if o.Scale <= 0 {
		o.Scale = 3
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = workload.Names()
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.NumCPU()
	}
	return o
}

// Annotated returns the measurement (reference-input) program for a
// benchmark with diverge-branch annotations transferred from a profiling
// run on the training input — the paper's train/ref methodology. Loop
// diverge branches (Section 2.7.4) are marked too; a machine predicates
// them only with EnableLoopDiverge. The result is memoized per (bench,
// scale) and shared by every machine configuration; it must be treated
// as read-only (see cache.go for the sharing invariant).
func Annotated(bench string, scale int) (*prog.Program, error) {
	e := programEntry(bench, scale)
	return e.p, e.err
}

// AnnotatedLoops is Annotated, under the name cmd/dmpbench's
// loop-diverge probe calls.
func AnnotatedLoops(bench string, scale int) (*prog.Program, error) { return Annotated(bench, scale) }

// Load returns the program a command runs: the assembly file asm when
// it is set, else bench's annotated measurement program at scale. An
// assembly file carries no annotations of its own: with prof set it is
// profiled in place on its one input.
func Load(bench, asm string, scale int, prof bool) (*prog.Program, error) {
	if asm == "" {
		return Annotated(bench, scale)
	}
	src, err := os.ReadFile(asm)
	if err != nil {
		return nil, err
	}
	p, err := prog.Assemble(string(src))
	if err != nil {
		return nil, err
	}
	if prof {
		if _, err := profile.Run(p, profile.DefaultOptions()); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	return p, nil
}

// buildAnnotated is the uncached builder behind Annotated: workload
// build, then the training input's diverge table (stored, or profiled)
// transferred to the reference build.
func buildAnnotated(bench string, scale int) (*prog.Program, error) {
	w, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	train := w.Build(workload.BuildConfig{Seed: workload.TrainSeed, Scale: scale})
	ref := w.Build(workload.BuildConfig{Seed: workload.RefSeed, Scale: scale})
	popts := profile.DefaultOptions()

	st := stored.Load()
	var trainHash, profiler string
	if st != nil {
		trainHash, profiler = train.Hash(), popts.Key()
		table, err := st.Annotations(trainHash, profiler)
		switch {
		case err == nil && markChecked(ref, table, popts):
			return ref, nil
		case err == nil || !errors.Is(err, fs.ErrNotExist):
			mAnnotationRejects.Inc()
		}
	}

	mProfileRuns.Inc()
	if _, err := profile.Run(train, popts); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	// The code image is identical across seeds (only data differs), so
	// the training annotations transfer by PC.
	for pc, d := range train.Diverge {
		ref.MarkDiverge(pc, d)
	}
	if st != nil {
		// A failed write only costs the next process a profile.
		st.PutAnnotations(trainHash, profiler, train)
	}
	return ref, nil
}

// runSuite runs every benchmark under cfg, returning shared frozen stats
// in benchmark order (Clone before mutating — see simcache.go). o must
// already be normalized (o.norm()); every exported experiment normalizes
// once at its entry point. Each benchmark goroutine only ties up a global
// worker slot while its simulation actually runs; repeats resolve from
// the result cache.
func runSuite(cfg core.Config, o Options) ([]*core.Stats, error) {
	return perBench(o, func(bench string) (*core.Stats, error) { return RunOne(bench, cfg, o) })
}

// perBench calls fn for every benchmark of o concurrently and returns
// the results in benchmark order. It reports every failing benchmark,
// each named, not just the first: a core bug usually breaks several
// workloads at once and the full list is the diagnostic.
func perBench[T any](o Options, fn func(bench string) (T, error)) ([]T, error) {
	out := make([]T, len(o.Benchmarks))
	errs := make([]error, len(o.Benchmarks))
	var wg sync.WaitGroup
	for i, bench := range o.Benchmarks {
		wg.Add(1)
		go func(i int, bench string) {
			defer wg.Done()
			var err error
			if out[i], err = fn(bench); err != nil {
				errs[i] = fmt.Errorf("%s: %w", bench, err)
			}
		}(i, bench)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// runSuites runs one suite per configuration concurrently, returning
// stats as [config][benchmark]. The figures that compare machines (7, 9,
// 11, 12, the sweeps, dual-path) used to run their suites back to back;
// launching them together lets the global pool keep every worker busy
// across configuration boundaries, and the result cache deduplicates any
// configuration another experiment already ran.
func runSuites(cfgs []core.Config, o Options) ([][]*core.Stats, error) {
	all := make([][]*core.Stats, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg core.Config) {
			defer wg.Done()
			all[i], errs[i] = runSuite(cfg, o)
		}(i, cfg)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return all, nil
}

// --- table rendering ---

// Table is one experiment's result: a titled grid with a trailing note.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Note   string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&sb, "note: %s\n", t.Note)
	}
	return sb.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d(v uint64) string   { return fmt.Sprintf("%d", v) }

// pctImp returns the % IPC improvement of st over base.
func pctImp(st, base *core.Stats) float64 {
	if base.IPC() == 0 {
		return 0
	}
	return 100 * (st.IPC()/base.IPC() - 1)
}

func amean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
