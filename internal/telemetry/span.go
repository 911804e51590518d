package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Tracer writes a Chrome trace_event JSON array. It is the repo's only
// trace_event writer: host spans go through Begin/Child/End (pid 1, ts
// in microseconds since the tracer started), and obs.Pipetrace's
// per-uop events go through Complete on a tracer of their own (pid 0,
// ts in simulated cycles), so both load into Perfetto the same way.
//
// Spans form a tree: Begin starts a root, Span.Child a nested span on
// the same lane (tid), Span.ChildAsync a span on a fresh lane for work
// that runs concurrently with its parent (worker-pool simulations,
// pipeline interval jobs). Events are written at End as "X" (complete)
// events carrying the span id and parent id in args, which is what
// dmpobs -telemetry uses to validate nesting.
//
// All methods are safe on a nil *Tracer and a nil *Span, so call sites
// thread spans without guarding (matching the core.Probe convention).
type Tracer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	epoch  time.Time
	events int
	nextID uint64
	closed bool
}

// NewTracer starts a tracer writing to w. Call Close to finish the
// JSON array.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{w: bufio.NewWriterSize(w, 1<<16), epoch: time.Now()}
	t.w.WriteString("[\n")
	return t
}

// Span is one in-flight unit of host work. End completes it; child
// spans may outlive their parent's End call (async lanes), dmpobs only
// checks containment for same-lane children.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	tid    uint64
	name   string
	cat    string
	start  time.Time
}

// Begin starts a root span on a fresh lane. cat groups spans in
// Perfetto (e.g. "exp", "sample").
func (t *Tracer) Begin(name, cat string) *Span {
	if t == nil {
		return nil
	}
	id := t.allocID()
	return &Span{t: t, id: id, tid: id, name: name, cat: cat, start: time.Now()}
}

func (t *Tracer) allocID() uint64 {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return id
}

// Child starts a nested span on the parent's lane: sequential sub-work,
// rendered stacked under the parent in Perfetto.
func (s *Span) Child(name, cat string) *Span {
	if s == nil {
		return nil
	}
	id := s.t.allocID()
	return &Span{t: s.t, id: id, parent: s.id, tid: s.tid, name: name, cat: cat, start: time.Now()}
}

// ChildAsync starts a nested span on a fresh lane: work that overlaps
// its siblings (a pooled simulation, a pipeline interval job).
func (s *Span) ChildAsync(name, cat string) *Span {
	if s == nil {
		return nil
	}
	id := s.t.allocID()
	return &Span{t: s.t, id: id, parent: s.id, tid: id, name: name, cat: cat, start: time.Now()}
}

// End completes the span and writes its event.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.t.emit(s.name, s.cat, s.id, s.parent, s.tid, s.start, now.Sub(s.start))
}

// ID returns the span's id (0 for a nil span), for correlating feed
// events with trace lanes.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Tracer returns the tracer the span belongs to (nil for a nil span).
// Hot paths capture it once and emit with SpanAt behind a nil check.
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.t
}

// SpanAt records an already-measured span from scalar arguments: name
// and cat must be constant strings, start/dur come from the caller's
// own clock reads. This is the form //dmp:hotpath code uses — wrapped
// in an `if tr != nil` guard it costs nothing when tracing is off and
// allocates no *Span object when on. parent is the enclosing span's ID
// (0 for a root); the event gets its own fresh lane.
func (t *Tracer) SpanAt(name, cat string, start time.Time, dur time.Duration, parent uint64) {
	if t == nil {
		return
	}
	id := t.allocID()
	t.emit(name, cat, id, parent, id, start, dur)
}

func (t *Tracer) emit(name, cat string, id, parent, tid uint64, start time.Time, dur time.Duration) {
	ts := start.Sub(t.epoch).Microseconds()
	if ts < 0 {
		ts = 0
	}
	us := dur.Microseconds()
	if us < 1 {
		us = 1 // Perfetto drops zero-width complete events
	}
	t.Complete(name, cat, 1, tid, ts, us, fmt.Appendf(nil, `{"id":%d,"parent":%d}`, id, parent))
}

// Complete writes one complete ("X") event with caller-supplied
// coordinates: pid and tid pick the Perfetto process and lane, ts and
// dur are in the trace's own unit, and args is the event's args object
// as JSON. Raw newlines in name are replaced so one event cannot break
// the array.
func (t *Tracer) Complete(name, cat string, pid, tid uint64, ts, dur int64, args []byte) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	if t.events > 0 {
		t.w.WriteString(",\n")
	}
	t.events++
	// Appended by hand rather than through fmt: a pipetrace writes one
	// event per simulated uop.
	b := strconv.AppendQuote(append(t.w.AvailableBuffer(), `{"name":`...), strings.ReplaceAll(name, "\n", " "))
	b = strconv.AppendQuote(append(b, `,"cat":`...), cat)
	b = strconv.AppendInt(append(b, `,"ph":"X","ts":`...), ts, 10)
	b = strconv.AppendInt(append(b, `,"dur":`...), dur, 10)
	b = strconv.AppendUint(append(b, `,"pid":`...), pid, 10)
	b = strconv.AppendUint(append(b, `,"tid":`...), tid, 10)
	t.w.Write(append(append(append(b, `,"args":`...), args...), '}'))
}

// Close terminates the JSON array and flushes. Idempotent.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	t.w.WriteString("\n]\n")
	return t.w.Flush()
}
