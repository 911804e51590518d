package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one structured progress event. Kind is the discriminator;
// the other fields are kind-dependent and omitted when empty:
//
//	run-start      Name=command, Msg=args summary
//	experiment     Name=experiment, Msg="start"|"done", V=wall seconds when done
//	simulation     Name=bench/config label, Msg="hit"|"miss"|"store-hit"|"shared"|"done", V=wall seconds
//	diff           Name=stage on divergence, N=seeds verified so far
//	progress       N=completed units, V=total units, Msg=current item
//	metrics        Metrics=delta of every registered metric since last metrics event
//	cycle          N=retired instructions, V=simulated cycle (obs.ProgressProbe); Msg="done" on the final one
//	run-end        V=total wall seconds
type Event struct {
	T       float64   `json:"t"` // seconds since the feed started
	Kind    string    `json:"kind"`
	Name    string    `json:"name,omitempty"`
	Msg     string    `json:"msg,omitempty"`
	N       uint64    `json:"n,omitempty"`
	V       float64   `json:"v,omitempty"`
	Metrics *Snapshot `json:"metrics,omitempty"`
}

// Feed fans structured progress events out to an optional JSONL writer
// and any in-process subscribers (the Progress renderer, dmpserve's SSE
// endpoint). Emit is safe for concurrent use and nil-safe; subscribers
// run synchronously under the feed lock, so they must be fast and must
// not call back into the feed.
type Feed struct {
	mu     sync.Mutex
	w      *bufio.Writer
	enc    *json.Encoder
	start  time.Time
	subs   []func(Event)
	closed bool
}

// NewFeed builds a feed. w may be nil for a subscriber-only feed.
func NewFeed(w io.Writer) *Feed {
	f := &Feed{start: time.Now()}
	if w != nil {
		f.w = bufio.NewWriterSize(w, 1<<15)
		f.enc = json.NewEncoder(f.w)
	}
	return f
}

// Subscribe registers fn to receive every subsequent event.
func (f *Feed) Subscribe(fn func(Event)) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.subs = append(f.subs, fn)
	f.mu.Unlock()
}

// Emit stamps ev with the feed-relative time and delivers it.
func (f *Feed) Emit(ev Event) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	ev.T = time.Since(f.start).Seconds()
	if f.enc != nil {
		f.enc.Encode(ev)
	}
	for _, fn := range f.subs {
		fn(ev)
	}
}

// Close flushes the JSONL writer and stops delivery. Idempotent.
func (f *Feed) Close() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	if f.w != nil {
		return f.w.Flush()
	}
	return nil
}
