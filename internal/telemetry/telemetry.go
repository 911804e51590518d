// Package telemetry is the host-side observability layer: where
// internal/obs makes the *simulated machine* observable (PR 4's probe
// sinks), this package makes the *host infrastructure* observable — the
// process-wide result cache and worker pool (internal/exp), sampled
// runs with their intervals on free worker slots or inline
// (internal/sample), and the differential harness (internal/gen/diff).
//
// It has three parts:
//
//   - a process-wide metrics Registry of counters, gauges and
//     fixed-bucket histograms (metrics.go). Metric hot paths are atomic
//     and allocation-free; Snapshot/Delta mirror core.Stats.Delta, and a
//     snapshot writes itself as Prometheus text or JSON.
//   - a span Tracer (span.go), the repo's one Chrome trace_event
//     writer: a whole experiment run (suite → experiment → simulation →
//     sample-pipeline stage → interval job) loads into Perfetto, and
//     obs.Pipetrace writes its per-uop events through a Tracer too.
//   - a structured progress-event Feed (feed.go): JSONL writer plus an
//     in-process subscriber API. Progress (progress.go), the one live
//     progress renderer, subscribes to it, and dmpserve streams it over
//     SSE.
//
// cli.go holds the one attach path the CLIs share: the Flags bundle
// (-cpuprofile -memprofile -trace -telemetry -telemetry-out) and the
// Run that starts the host profilers and the Set and finishes both on
// every exit path.
//
// The perturbation contract inherits PR 4's two halves: with telemetry
// disabled the instrumentation costs only atomic counter updates and
// nil-pointer compares on host-side (never simulated) code paths,
// measured within noise (<2%, BENCH_telemetry.json); with telemetry
// fully attached every golden experiment table stays byte-identical,
// because nothing here touches core.Config, core.Stats or any simulated
// state (pinned by TestTelemetryDoesNotPerturb). No telemetry knob
// enters Config.Canonical().
//
// Activation is process-global, mirroring the process-global things it
// observes (the exp result cache and worker pool): Enable installs a
// *Set, Active returns it (nil = disabled). Metrics are package
// variables registered at init and always live — an atomic add is
// cheaper than a branch-and-load dance and keeps the hot path
// branch-free — while spans and feed events, which allocate and write,
// are emitted only behind a nil check on the active Set.
package telemetry

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

// Set bundles one process's attached telemetry: the registry it
// snapshots, the span tracer, and the progress feed. Construct with
// New; a nil *Set is the disabled state and every method on it is a
// cheap no-op, so call sites need no branching of their own.
type Set struct {
	reg    *Registry
	tracer *Tracer
	feed   *Feed

	mu       sync.Mutex
	lastSnap Snapshot // basis of the next EmitMetrics delta
	closers  []io.Closer
	closed   bool
}

// Options configures New. Any writer may be nil to disable that output;
// the feed's subscriber API works with or without a writer.
type Options struct {
	// SpanW receives the Chrome trace_event JSON array of host-side
	// spans (Perfetto-loadable).
	SpanW io.Writer
	// EventW receives the progress feed as JSON Lines.
	EventW io.Writer
	// Registry overrides the process default registry (tests).
	Registry *Registry
	// Closers are closed (in reverse order) by Set.Close, after the
	// tracer and feed flush — typically the underlying files.
	Closers []io.Closer
}

// New builds a telemetry set. It does not install it; call Enable.
func New(o Options) *Set {
	reg := o.Registry
	if reg == nil {
		reg = DefaultRegistry()
	}
	s := &Set{reg: reg, feed: NewFeed(o.EventW), closers: o.Closers}
	if o.SpanW != nil {
		s.tracer = NewTracer(o.SpanW)
	}
	return s
}

// Registry returns the set's metrics registry (the process default
// unless overridden). Nil-safe: a nil set returns the default registry.
func (s *Set) Registry() *Registry {
	if s == nil {
		return DefaultRegistry()
	}
	return s.reg
}

// Tracer returns the span tracer, or nil when the set is nil or was
// built without a span writer. A nil *Tracer is itself inert, so
// callers may chain without checking.
func (s *Set) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tracer
}

// Feed returns the progress feed, or nil on a nil set (a nil *Feed is
// inert).
func (s *Set) Feed() *Feed {
	if s == nil {
		return nil
	}
	return s.feed
}

// EmitMetrics publishes a "metrics" progress event carrying the delta
// of every registered metric since the previous EmitMetrics (or since
// Enable). The final delta is emitted by Close against the exact
// snapshot Close then reports, so the deltas on the feed always sum to
// the final snapshot — the invariant dmpobs -telemetry validates.
func (s *Set) EmitMetrics() {
	if s == nil {
		return
	}
	s.mu.Lock()
	snap := s.reg.Snapshot()
	delta := snap.Delta(s.lastSnap)
	s.lastSnap = snap
	s.mu.Unlock()
	s.feed.Emit(Event{Kind: "metrics", Metrics: &delta})
}

// Close emits the final metrics delta, flushes the tracer and feed, and
// closes the attached closers. It returns the final metrics snapshot —
// the one the emitted deltas sum to — so the caller can write it out.
func (s *Set) Close() (Snapshot, error) {
	if s == nil {
		return Snapshot{}, nil
	}
	s.mu.Lock()
	if s.closed {
		last := s.lastSnap
		s.mu.Unlock()
		return last, nil
	}
	s.closed = true
	snap := s.reg.Snapshot()
	delta := snap.Delta(s.lastSnap)
	s.lastSnap = snap
	s.mu.Unlock()

	s.feed.Emit(Event{Kind: "metrics", Metrics: &delta})
	var errs []error
	if s.tracer != nil {
		if err := s.tracer.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := s.feed.Close(); err != nil {
		errs = append(errs, err)
	}
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i].Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return snap, errors.Join(errs...)
}

// --- process-global activation ---

var active atomic.Pointer[Set]

// Enable installs s as the process's active telemetry set (nil
// disables). Like the exp worker pool, activation is process-wide: the
// instrumented packages observe whatever set is active when they run.
func Enable(s *Set) { active.Store(s) }

// Active returns the active set, or nil when telemetry is disabled.
// The load is one atomic pointer read; instrumentation sites call it
// once per logical operation, never per hot-loop iteration.
func Active() *Set { return active.Load() }

// ActiveTracer returns the active set's tracer (nil when disabled).
func ActiveTracer() *Tracer { return Active().Tracer() }

// ActiveFeed returns the active set's feed (nil when disabled).
func ActiveFeed() *Feed { return Active().Feed() }

// Emit publishes an event on the active feed, if any.
func Emit(ev Event) { Active().Feed().Emit(ev) }
