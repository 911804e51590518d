package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 10, 100})

	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
	h.Observe(0.5)  // bucket 0
	h.Observe(10)   // bucket 1 (le is inclusive)
	h.Observe(50)   // bucket 2
	h.Observe(1000) // above all bounds: count/sum only
	if h.Count() != 4 {
		t.Fatalf("hist count = %d, want 4", h.Count())
	}
	if h.Sum() != 1060.5 {
		t.Fatalf("hist sum = %g, want 1060.5", h.Sum())
	}
	s := r.Snapshot()
	want := []uint64{1, 1, 1}
	for i, b := range s.Histograms[0].Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, b, want[i])
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramBoundsMustAscend(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	r.Histogram("h", "", []float64{1, 1})
}

func TestSnapshotDeltaAddRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 2})

	c.Add(3)
	g.Set(5)
	h.Observe(0.5)
	first := r.Snapshot()

	c.Add(2)
	g.Set(9)
	h.Observe(1.5)
	h.Observe(7)
	second := r.Snapshot()

	d := second.Delta(first)
	if d.Counters[0].Value != 2 {
		t.Fatalf("counter delta = %d, want 2", d.Counters[0].Value)
	}
	if d.Gauges[0].Value != 9 {
		t.Fatalf("gauge delta carries current value; got %d, want 9", d.Gauges[0].Value)
	}
	if d.Histograms[0].Count != 2 || d.Histograms[0].Sum != 8.5 {
		t.Fatalf("hist delta count/sum = %d/%g, want 2/8.5",
			d.Histograms[0].Count, d.Histograms[0].Sum)
	}
	if d.Histograms[0].Buckets[0] != 0 || d.Histograms[0].Buckets[1] != 1 {
		t.Fatalf("hist delta buckets = %v", d.Histograms[0].Buckets)
	}

	// first + delta must reproduce second exactly (the dmpobs
	// validation invariant).
	back := first.Add(d)
	bj, _ := json.Marshal(back)
	sj, _ := json.Marshal(second)
	if !bytes.Equal(bj, sj) {
		t.Fatalf("Add(Delta) round trip:\n got %s\nwant %s", bj, sj)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("dmp_hits_total", "").Add(3)
	r.Gauge("dmp_depth", "").Set(-2)
	h := r.Histogram("dmp_wait_seconds", "", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE dmp_hits_total counter\ndmp_hits_total 3\n",
		"# TYPE dmp_depth gauge\ndmp_depth -2\n",
		`dmp_wait_seconds_bucket{le="0.1"} 1`,
		`dmp_wait_seconds_bucket{le="1"} 2`,
		`dmp_wait_seconds_bucket{le="+Inf"} 3`,
		"dmp_wait_seconds_sum 5.55\ndmp_wait_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", SecondsBuckets())
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		g.Add(-1)
		h.Observe(0.42)
	}); n != 0 {
		t.Fatalf("metric hot path allocates: %v allocs/op", n)
	}
}

func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	h := r.Histogram("h", "", []float64{10})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 || h.Sum() != 8000 {
		t.Fatalf("hist count/sum = %d/%g, want 8000/8000", h.Count(), h.Sum())
	}
}

type traceEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	Pid  int    `json:"pid"`
	Tid  uint64 `json:"tid"`
	Args struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
	} `json:"args"`
}

func TestTracerChromeTrace(t *testing.T) {
	var b bytes.Buffer
	tr := NewTracer(&b)
	root := tr.Begin("suite", "exp")
	child := root.Child("experiment", "exp")
	async := child.ChildAsync("simulation", "exp")
	async.End()
	child.End()
	tr.SpanAt("interval", "sample", time.Now().Add(-time.Millisecond), time.Millisecond, child.ID())
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	var evs []traceEvent
	if err := json.Unmarshal(b.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, b.String())
	}
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	byName := map[string]traceEvent{}
	ids := map[uint64]bool{}
	for _, ev := range evs {
		if ev.Ph != "X" || ev.Pid != 1 || ev.Dur < 1 {
			t.Fatalf("malformed event %+v", ev)
		}
		byName[ev.Name] = ev
		ids[ev.Args.ID] = true
	}
	if byName["suite"].Args.Parent != 0 {
		t.Fatal("root span has a parent")
	}
	for _, name := range []string{"experiment", "simulation", "interval"} {
		if p := byName[name].Args.Parent; p == 0 || !ids[p] {
			t.Fatalf("%s parent %d not a known span id", name, p)
		}
	}
	// Same-lane child shares tid; async child does not.
	if byName["experiment"].Tid != byName["suite"].Tid {
		t.Fatal("Child did not stay on the parent lane")
	}
	if byName["simulation"].Tid == byName["experiment"].Tid {
		t.Fatal("ChildAsync did not get a fresh lane")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	var sp *Span
	var f *Feed
	var s *Set
	tr.SpanAt("x", "y", time.Now(), time.Second, 0)
	tr.Begin("x", "y").Child("a", "b").ChildAsync("c", "d").End()
	sp.End()
	if sp.ID() != 0 {
		t.Fatal("nil span id")
	}
	f.Emit(Event{Kind: "x"})
	f.Subscribe(func(Event) {})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s.EmitMetrics()
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Registry() == nil || s.Tracer() != nil || s.Feed() != nil {
		t.Fatal("nil Set accessors")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFeedJSONLAndSubscribers(t *testing.T) {
	var b bytes.Buffer
	f := NewFeed(&b)
	var got []Event
	f.Subscribe(func(ev Event) { got = append(got, ev) })
	f.Emit(Event{Kind: "simulation", Name: "mcf/base", Msg: "miss"})
	f.Emit(Event{Kind: "progress", N: 1, V: 5})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f.Emit(Event{Kind: "late"}) // dropped after close

	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2:\n%s", len(lines), b.String())
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "simulation" || ev.Name != "mcf/base" || ev.Msg != "miss" {
		t.Fatalf("bad first event: %+v", ev)
	}
	if len(got) != 2 || got[1].N != 1 {
		t.Fatalf("subscriber got %+v", got)
	}
}

func TestSetDeltasSumToFinal(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	var events bytes.Buffer
	s := New(Options{EventW: &events, Registry: r})

	c.Add(10)
	s.EmitMetrics()
	c.Add(5)
	s.EmitMetrics()
	c.Add(1)
	final, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if final.Counters[0].Value != 16 {
		t.Fatalf("final = %d, want 16", final.Counters[0].Value)
	}

	// Fold the emitted deltas back together; they must equal the final
	// snapshot Close returned.
	var sum Snapshot
	nmetrics := 0
	for _, line := range strings.Split(strings.TrimSpace(events.String()), "\n") {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind != "metrics" {
			continue
		}
		nmetrics++
		if nmetrics == 1 {
			sum = *ev.Metrics
		} else {
			sum = sum.Add(*ev.Metrics)
		}
	}
	if nmetrics != 3 {
		t.Fatalf("got %d metrics events, want 3", nmetrics)
	}
	fj, _ := json.Marshal(final)
	sj, _ := json.Marshal(sum)
	if !bytes.Equal(fj, sj) {
		t.Fatalf("delta sum != final:\n got %s\nwant %s", sj, fj)
	}

	// Close is idempotent and keeps returning the final snapshot.
	again, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(again)
	if !bytes.Equal(aj, fj) {
		t.Fatal("second Close changed the snapshot")
	}
}

func TestEnableActive(t *testing.T) {
	if Active() != nil {
		t.Fatal("telemetry active at test start")
	}
	s := New(Options{Registry: NewRegistry()})
	Enable(s)
	if Active() != s {
		t.Fatal("Active did not return the enabled set")
	}
	Enable(nil)
	if Active() != nil || ActiveTracer() != nil || ActiveFeed() != nil {
		t.Fatal("disable did not clear")
	}
	Emit(Event{Kind: "x"}) // no-op when disabled
}

func TestProgressRenderer(t *testing.T) {
	var b bytes.Buffer
	p := NewProgress(&b, true)
	p.Event(Event{Kind: "progress", N: 1, V: 3, Msg: "mcf", T: 1})
	p.Event(Event{Kind: "simulation", Msg: "miss", T: 1.05}) // rate-limited
	p.Event(Event{Kind: "simulation", Msg: "miss", T: 1.5})
	p.Finish()
	out := b.String()
	if !strings.Contains(out, "\r") {
		t.Fatalf("tty renderer did not repaint in place: %q", out)
	}
	if !strings.Contains(out, "1/3") || !strings.Contains(out, "mcf") {
		t.Fatalf("missing progress fields: %q", out)
	}
	if strings.Count(out, "\r") != 2 {
		t.Fatalf("want two repaints (one rate-limited away): %q", out)
	}
	if !strings.Contains(out, "0 hit 2 miss") {
		t.Fatalf("missing cache tally: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("Finish did not terminate the line: %q", out)
	}

	// Non-TTY mode prints plain lines, no carriage returns.
	b.Reset()
	p2 := NewProgress(&b, false)
	p2.Event(Event{Kind: "progress", N: 2, V: 3, T: 2})
	p2.Finish()
	if strings.Contains(b.String(), "\r") {
		t.Fatalf("pipe renderer used \\r: %q", b.String())
	}
}
