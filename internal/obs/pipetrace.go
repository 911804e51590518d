package obs

import (
	"bufio"
	"fmt"
	"io"

	"dmp/internal/core"
	"dmp/internal/isa"
	"dmp/internal/telemetry"
)

// PipetraceFormat selects the pipetrace output encoding.
type PipetraceFormat int

const (
	// FormatText renders one line per uop with its per-stage cycles
	// (gem5 O3PipeView-style: the life of each instruction across the
	// pipeline).
	FormatText PipetraceFormat = iota
	// FormatChrome writes a Chrome trace_event JSON array through
	// telemetry.Tracer, loadable in Perfetto (ui.perfetto.dev) or
	// chrome://tracing: one complete ("ph":"X") event per uop on pid 0,
	// spanning fetch to retire/squash in cycles, with the per-stage
	// cycles in args.
	FormatChrome
)

// ptRec accumulates one uop's per-stage cycles between its fetch event
// and its retire/squash event. Stage fields store cycle+1 so 0 means
// "never reached" even for events in cycle 0.
type ptRec struct {
	live     bool
	id       uint64
	seq      uint64
	pc       uint64
	kind     core.UopKind
	inst     isa.Inst
	predID   int
	stream   int
	onAlt    bool
	isFalse  bool
	fetch    uint64
	rename   uint64
	issue    uint64
	complete uint64
	retire   uint64
	squash   uint64
	memblock uint64
	blockSeq uint64
}

// Pipetrace records per-uop pipeline stage timings and writes one
// text line or one Chrome trace event per uop when it leaves the
// pipeline. In-flight records live in a flat slice with a free list, so
// steady-state tracing allocates only when the in-flight population
// grows past its high-water mark.
type Pipetrace struct {
	w      *bufio.Writer     // FormatText output
	trace  *telemetry.Tracer // FormatChrome output
	emit   func(*ptRec)      // the format's encoder
	args   []byte            // Chrome args scratch, reused per uop
	recs   []ptRec
	byID   map[uint64]int32
	free   []int32
	closed bool
}

// NewPipetrace creates a pipetrace sink writing to w. Close flushes it.
func NewPipetrace(w io.Writer, format PipetraceFormat) *Pipetrace {
	t := &Pipetrace{byID: map[uint64]int32{}}
	if format == FormatChrome {
		t.trace = telemetry.NewTracer(w)
		t.emit = t.emitChrome
	} else {
		t.w = bufio.NewWriterSize(w, 1<<16)
		t.emit = t.emitText
	}
	return t
}

// Probe returns the probe to attach with Machine.SetProbe (or Tee).
func (t *Pipetrace) Probe() *core.Probe {
	return &core.Probe{Uop: t.record, Done: func(*core.Stats) { t.drain() }}
}

// record folds one uop event into its in-flight record, emitting and
// recycling the record when the uop retires or is squashed.
//
//dmp:hotpath
func (t *Pipetrace) record(ev core.UopEvent) {
	idx, ok := t.byID[ev.ID]
	if !ok {
		if n := len(t.free); n > 0 {
			idx = t.free[n-1]
			t.free = t.free[:n-1]
		} else {
			t.recs = append(t.recs, ptRec{})
			idx = int32(len(t.recs) - 1)
		}
		t.byID[ev.ID] = idx
		t.recs[idx] = ptRec{
			live: true, id: ev.ID, seq: ev.Seq, pc: ev.PC,
			kind: ev.Kind, inst: ev.Inst, predID: ev.PredID,
			stream: ev.Stream, onAlt: ev.OnAlt,
		}
	}
	r := &t.recs[idx]
	c := ev.Cycle + 1
	switch ev.Stage {
	case core.StageFetch:
		r.fetch = c
	case core.StageRename:
		r.rename = c
	case core.StageIssue:
		r.issue = c
	case core.StageComplete:
		r.complete = c
	case core.StageMemBlock:
		if r.memblock == 0 {
			r.memblock = c
			r.blockSeq = ev.Extra
		}
	case core.StageRetire:
		r.retire = c
		r.isFalse = ev.False
		t.emit(r)
		t.release(ev.ID, idx)
	case core.StageSquash:
		r.squash = c
		t.emit(r)
		t.release(ev.ID, idx)
	}
}

//dmp:hotpath
func (t *Pipetrace) release(id uint64, idx int32) {
	t.recs[idx].live = false
	delete(t.byID, id)
	t.free = append(t.free, idx)
}

// drain emits records still in flight at end of run, in creation order
// (slice order, never map order, so output is deterministic).
func (t *Pipetrace) drain() {
	for i := range t.recs {
		if t.recs[i].live {
			t.recs[i].live = false
			t.emit(&t.recs[i])
		}
	}
	t.byID = nil
	t.free = nil
}

// Close drains any in-flight records and flushes the output (closing
// the Chrome trace's array). Safe to call after Done already drained.
func (t *Pipetrace) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	t.drain()
	if t.trace != nil {
		return t.trace.Close()
	}
	return t.w.Flush()
}

// cyc renders a stored stage cycle: the real cycle, or -1 if the uop
// never reached that stage.
func cyc(c uint64) int64 { return int64(c) - 1 }

func (t *Pipetrace) emitText(r *ptRec) {
	fmt.Fprintf(t.w, "u%-8d seq=%-8d pc=%-6d %-22s fetch=%-8d rename=%-8d issue=%-8d complete=%-8d",
		r.id, r.seq, r.pc, t.name(r), cyc(r.fetch), cyc(r.rename), cyc(r.issue), cyc(r.complete))
	if r.squash != 0 {
		fmt.Fprintf(t.w, " squash=%-8d", cyc(r.squash))
	} else {
		fmt.Fprintf(t.w, " retire=%-8d", cyc(r.retire))
	}
	if r.memblock != 0 {
		fmt.Fprintf(t.w, " memblock=%d(by seq %d)", cyc(r.memblock), r.blockSeq)
	}
	if r.predID != 0 {
		fmt.Fprintf(t.w, " p%d", r.predID)
	}
	if r.onAlt {
		t.w.WriteString(" alt") //nolint:errcheck
	}
	if r.stream != 0 {
		fmt.Fprintf(t.w, " s%d", r.stream)
	}
	if r.isFalse {
		t.w.WriteString(" FALSE") //nolint:errcheck
	}
	t.w.WriteByte('\n') //nolint:errcheck
}

// name labels a record: the instruction text for program instructions,
// the uop kind for inserted predication uops.
func (t *Pipetrace) name(r *ptRec) string {
	if r.kind == core.UopInst {
		return r.inst.String()
	}
	return r.kind.String()
}

func (t *Pipetrace) emitChrome(r *ptRec) {
	// ts = first observed stage, dur = lifetime in cycles (min 1 so
	// zero-length uops stay visible), 32 lanes by uop id.
	start := r.fetch
	if start == 0 {
		start = r.rename
	}
	if start == 0 {
		start = 1
	}
	end := r.retire
	status := "retire"
	if r.squash != 0 {
		end, status = r.squash, "squash"
	}
	dur := int64(1)
	if end > start {
		dur = int64(end - start)
	}
	t.args = fmt.Appendf(t.args[:0], `{"id":%d,"seq":%d,"pc":%d,"kind":%q,"fetch":%d,"rename":%d,"issue":%d,`+
		`"complete":%d,"retire":%d,"squash":%d,"memblock":%d,"pred":%d,"alt":%t,"stream":%d,"false":%t,"end":%q}`,
		r.id, r.seq, r.pc, r.kind.String(), cyc(r.fetch), cyc(r.rename), cyc(r.issue),
		cyc(r.complete), cyc(r.retire), cyc(r.squash), cyc(r.memblock), r.predID, r.onAlt, r.stream,
		r.isFalse, status)
	t.trace.Complete(t.name(r), "uop", 0, r.id%32, cyc(start), dur, t.args)
}
