package telemetry

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"time"
)

// Flags is the observability flag bundle the CLIs share: the host
// profilers (-cpuprofile, -memprofile, -trace) and telemetry
// (-telemetry, -telemetry-out). Register binds all five; a CLI that
// offers only some of them (dmpserve) binds those itself and sets the
// rest as fields. Start attaches what the fields ask for.
type Flags struct {
	CPUProfile string // host CPU profile file
	MemProfile string // host heap profile file, written at Finish
	ExecTrace  string // host runtime execution trace file
	On         bool   // attach a telemetry Set
	Out        string // record the Set's artifacts in this directory; implies On
}

// Register binds the five flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a host CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a host heap profile to this file at exit")
	fs.StringVar(&f.ExecTrace, "trace", "", "write a host runtime execution trace to this file")
	fs.BoolVar(&f.On, "telemetry", false, "attach host-side telemetry (metrics, spans, progress feed)")
	fs.StringVar(&f.Out, "telemetry-out", "", "record telemetry artifacts (spans.json, events.jsonl, metrics.json/.prom) in this directory; implies -telemetry")
}

// Run is one process's attached observability, from Flags.Start to
// Finish.
type Run struct {
	Set  *Set  // the enabled telemetry set; nil when telemetry is off
	Root *Span // the process's root span; nil when telemetry is off

	out      string
	start    time.Time
	stops    []func() error // host profilers, stopped in reverse order
	finished bool
}

// Start starts the requested host profilers and, when telemetry is on,
// opens and enables a Set (writing into Out when set), begins the root
// span name/cat and emits run-start with msg. On error nothing is left
// running.
func (f *Flags) Start(name, cat, msg string) (*Run, error) {
	r := &Run{out: f.Out, start: time.Now()}
	err := r.profile(f.CPUProfile, pprof.StartCPUProfile, pprof.StopCPUProfile)
	if err == nil {
		err = r.profile(f.ExecTrace, rtrace.Start, rtrace.Stop)
	}
	if err != nil {
		r.Finish() //nolint:errcheck // already failing
		return nil, fmt.Errorf("profiling: %w", err)
	}
	if f.MemProfile != "" {
		r.stops = append(r.stops, func() error {
			runtime.GC() // up-to-date allocation data
			return writeFile(f.MemProfile, pprof.WriteHeapProfile)
		})
	}
	if f.Out != "" {
		r.Set, err = OpenDir(f.Out)
	} else if f.On {
		r.Set = New(Options{})
	}
	if err != nil {
		r.Finish() //nolint:errcheck // already failing
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	if r.Set != nil {
		Enable(r.Set)
		r.Root = r.Set.Tracer().Begin(name, cat)
		r.Set.Feed().Emit(Event{Kind: "run-start", Name: name, Msg: msg})
	}
	return r, nil
}

// profile starts one streaming host profiler into file (none if file is
// empty) and records how to stop it.
func (r *Run) profile(file string, start func(io.Writer) error, stop func()) error {
	if file == "" {
		return nil
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	if err := start(f); err != nil {
		f.Close()
		return err
	}
	r.stops = append(r.stops, func() error {
		stop()
		return f.Close()
	})
	return nil
}

// Finish emits run-end, ends the root span, closes and disables the
// Set, records the metrics files, and stops the profilers. It is
// nil-safe and idempotent, so every exit path of a CLI can call it:
// os.Exit skips deferred calls, and a profile or trace left unclosed is
// an empty or invalid file.
func (r *Run) Finish() error {
	if r == nil || r.finished {
		return nil
	}
	r.finished = true
	var errs []error
	if r.Set != nil {
		r.Set.Feed().Emit(Event{Kind: "run-end", V: time.Since(r.start).Seconds()})
		r.Root.End()
		snap, err := r.Set.Close()
		Enable(nil)
		if err == nil && r.out != "" {
			err = WriteMetricsDir(r.out, snap)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("telemetry: %w", err))
		}
	}
	for i := len(r.stops) - 1; i >= 0; i-- {
		if err := r.stops[i](); err != nil {
			errs = append(errs, fmt.Errorf("profiling: %w", err))
		}
	}
	return errors.Join(errs...)
}

// Artifact names inside a telemetry output directory (-telemetry-out).
// dmpobs -telemetry reads the same names back.
const (
	SpansFile       = "spans.json"   // Chrome trace_event array (Perfetto)
	EventsFile      = "events.jsonl" // progress feed, one Event per line
	MetricsFile     = "metrics.json" // final Snapshot as JSON
	MetricsPromFile = "metrics.prom" // final Snapshot, Prometheus text
)

// OpenDir creates dir (if needed) and returns a Set writing spans.json
// and events.jsonl into it; the underlying files close with the Set.
// The metrics files are written separately by WriteMetricsDir from the
// snapshot Set.Close returns, so the recorded finals are exactly the
// snapshot the feed's deltas sum to.
func OpenDir(dir string) (*Set, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sf, err := os.Create(filepath.Join(dir, SpansFile))
	if err != nil {
		return nil, err
	}
	ef, err := os.Create(filepath.Join(dir, EventsFile))
	if err != nil {
		sf.Close()
		return nil, err
	}
	return New(Options{SpanW: sf, EventW: ef, Closers: []io.Closer{ef, sf}}), nil
}

// WriteMetricsDir records snap as metrics.json and metrics.prom in dir.
func WriteMetricsDir(dir string, snap Snapshot) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, MetricsFile), append(data, '\n'), 0o644); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, MetricsPromFile), snap.WritePrometheus)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}
