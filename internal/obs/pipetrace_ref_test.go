package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// refChrome is the pipetrace's Chrome encoder as first written, with
// its own JSON array framing and event counter. It is kept as the
// reference the telemetry.Tracer-based encoder must match event for
// event.
type refChrome struct {
	w      *bufio.Writer
	events int
}

func newRefChrome(buf *bytes.Buffer) *refChrome {
	c := &refChrome{w: bufio.NewWriter(buf)}
	c.w.WriteString("[")
	return c
}

func (c *refChrome) close() error {
	c.w.WriteString("\n]\n")
	return c.w.Flush()
}

func (c *refChrome) emit(t *Pipetrace, r *ptRec) {
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
	if end < start {
		end = start
	}
	dur := end - start
	if dur == 0 {
		dur = 1
	}
	if c.events > 0 {
		c.w.WriteString(",")
	}
	c.events++
	fmt.Fprintf(c.w, "\n{\"name\":%q,\"cat\":\"uop\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"dur\":%d,"+
		"\"args\":{\"id\":%d,\"seq\":%d,\"pc\":%d,\"kind\":%q,\"fetch\":%d,\"rename\":%d,\"issue\":%d,"+
		"\"complete\":%d,\"retire\":%d,\"squash\":%d,\"memblock\":%d,\"pred\":%d,\"alt\":%t,\"stream\":%d,"+
		"\"false\":%t,\"end\":%q}}",
		t.name(r), r.id%32, cyc(start), dur,
		r.id, r.seq, r.pc, r.kind.String(), cyc(r.fetch), cyc(r.rename), cyc(r.issue),
		cyc(r.complete), cyc(r.retire), cyc(r.squash), cyc(r.memblock), r.predID, r.onAlt, r.stream,
		r.isFalse, status)
}

// TestPipetraceChromeMatchesReference runs one enhanced mcf run into
// both encoders at once (same probe events, same record lifecycle) and
// requires identical decoded event lists: moving the Chrome output onto
// the shared trace writer changed the bytes' layout, not one event.
func TestPipetraceChromeMatchesReference(t *testing.T) {
	var got, want bytes.Buffer
	trace := NewPipetrace(&got, FormatChrome)
	ref := NewPipetrace(nil, FormatText)
	rc := newRefChrome(&want)
	ref.emit = func(r *ptRec) { rc.emit(ref, r) }
	runMCF(t, false, Tee(trace.Probe(), ref.Probe()))
	if err := trace.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rc.close(); err != nil {
		t.Fatal(err)
	}

	var g, w []map[string]any
	if err := json.Unmarshal(got.Bytes(), &g); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if err := json.Unmarshal(want.Bytes(), &w); err != nil {
		t.Fatalf("reference trace does not parse: %v", err)
	}
	if len(w) < 1000 {
		t.Fatalf("reference trace has only %d events; test exercises little", len(w))
	}
	if len(g) != len(w) {
		t.Fatalf("got %d events, reference %d", len(g), len(w))
	}
	for i := range w {
		if !reflect.DeepEqual(g[i], w[i]) {
			t.Fatalf("event %d differs:\n  got %v\n  ref %v", i, g[i], w[i])
		}
	}
}
