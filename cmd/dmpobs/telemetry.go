package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"dmp/internal/telemetry"
)

// validateTelemetry cross-checks the artifacts a -telemetry-out run
// records (dmpexp/dmpsim): spans.json must be a well-formed span forest
// (unique nonzero ids, resolvable parents, same-lane children contained
// in their parent's window), and the metrics deltas streamed into
// events.jsonl must fold back — via Snapshot.Add — into exactly the
// finals in metrics.json. The pieces are split out so each contract is
// testable without a real run.
func validateTelemetry(dir string) error {
	spans, err := readSpans(filepath.Join(dir, telemetry.SpansFile))
	if err != nil {
		return err
	}
	if err := checkSpans(spans); err != nil {
		return fmt.Errorf("%s: %w", telemetry.SpansFile, err)
	}

	evs, err := readEvents(filepath.Join(dir, telemetry.EventsFile))
	if err != nil {
		return err
	}
	if err := checkEventStream(evs); err != nil {
		return fmt.Errorf("%s: %w", telemetry.EventsFile, err)
	}

	final, err := readMetrics(filepath.Join(dir, telemetry.MetricsFile))
	if err != nil {
		return err
	}
	folded, ok := foldMetricDeltas(evs)
	if !ok {
		return fmt.Errorf("%s: no metrics events to fold", telemetry.EventsFile)
	}
	if err := compareSnapshots(folded, final); err != nil {
		return fmt.Errorf("folded event deltas vs %s: %w", telemetry.MetricsFile, err)
	}

	kinds := map[string]int{}
	for _, e := range evs {
		kinds[e.Kind]++
	}
	fmt.Printf("%s: consistent telemetry artifacts\n", dir)
	fmt.Printf("  %d spans (nesting well-formed), %d events, %d metrics deltas fold to the recorded finals\n",
		len(spans), len(evs), kinds["metrics"])
	fmt.Printf("  finals: %d counters, %d gauges, %d histograms\n",
		len(final.Counters), len(final.Gauges), len(final.Histograms))
	return nil
}

// traceSpan is one complete ("X") Chrome trace_event as
// internal/telemetry's Tracer writes it; ID/Parent ride in args.
type traceSpan struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	TS   int64  `json:"ts"`  // µs since tracer epoch
	Dur  int64  `json:"dur"` // µs
	TID  uint64 `json:"tid"`
	Args struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
	} `json:"args"`
}

func readSpans(path string) ([]traceSpan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []traceSpan
	if err := json.Unmarshal(data, &spans); err != nil {
		return nil, fmt.Errorf("%s: invalid Chrome trace JSON: %w", path, err)
	}
	return spans, nil
}

// spanSlack is the tolerance (µs) allowed when checking that a child
// span's window sits inside its parent's: End clamps durations to ≥1µs
// and parent/child timestamps are read separately, so exact containment
// can miss by a few microseconds without anything being wrong.
const spanSlack = 5

func checkSpans(spans []traceSpan) error {
	if len(spans) == 0 {
		return fmt.Errorf("no spans recorded")
	}
	byID := make(map[uint64]traceSpan, len(spans))
	for i, s := range spans {
		if s.Ph != "X" {
			return fmt.Errorf("span %d (%s): phase %q, want complete event \"X\"", i, s.Name, s.Ph)
		}
		if s.Args.ID == 0 {
			return fmt.Errorf("span %d (%s): zero id", i, s.Name)
		}
		if _, dup := byID[s.Args.ID]; dup {
			return fmt.Errorf("span %d (%s): duplicate id %d", i, s.Name, s.Args.ID)
		}
		if s.TS < 0 || s.Dur <= 0 {
			return fmt.Errorf("span %d (%s): implausible window ts=%d dur=%d", i, s.Name, s.TS, s.Dur)
		}
		byID[s.Args.ID] = s
	}
	for i, s := range spans {
		if s.Args.Parent == 0 {
			continue // root
		}
		p, ok := byID[s.Args.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s): parent id %d not in trace", i, s.Name, s.Args.Parent)
		}
		// Spans on the parent's lane (Child) must nest inside it.
		// Cross-lane spans (ChildAsync, interval jobs) may outlive the
		// window they were spawned from only in ordering, not here:
		// their parent link is causal, not temporal.
		if s.TID != p.TID {
			continue
		}
		if s.TS+spanSlack < p.TS || s.TS+s.Dur > p.TS+p.Dur+spanSlack {
			return fmt.Errorf("span %d (%s): [%d,%d]µs escapes parent %s [%d,%d]µs",
				i, s.Name, s.TS, s.TS+s.Dur, p.Name, p.TS, p.TS+p.Dur)
		}
	}
	return nil
}

func readEvents(path string) ([]telemetry.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var evs []telemetry.Event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s: line %d: %w", path, line, err)
		}
		evs = append(evs, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return evs, nil
}

// checkEventStream verifies the feed's framing: timestamps present and
// non-decreasing, exactly one run-start (first) and one run-end.
func checkEventStream(evs []telemetry.Event) error {
	if len(evs) == 0 {
		return fmt.Errorf("no events recorded")
	}
	if evs[0].Kind != "run-start" {
		return fmt.Errorf("first event is %q, want run-start", evs[0].Kind)
	}
	starts, ends := 0, 0
	prev := -1.0
	for i, e := range evs {
		if e.Kind == "" {
			return fmt.Errorf("event %d: missing kind", i)
		}
		if e.T < prev {
			return fmt.Errorf("event %d (%s): timestamp %g before predecessor %g", i, e.Kind, e.T, prev)
		}
		prev = e.T
		switch e.Kind {
		case "run-start":
			starts++
		case "run-end":
			ends++
		}
	}
	if starts != 1 || ends != 1 {
		return fmt.Errorf("want exactly one run-start and run-end, got %d and %d", starts, ends)
	}
	return nil
}

// foldMetricDeltas folds every metrics event's delta snapshot, in
// order, via Snapshot.Add. Counters and histograms accumulate; gauges
// keep the latest reading — exactly inverting how the Set emitted them.
func foldMetricDeltas(evs []telemetry.Event) (telemetry.Snapshot, bool) {
	var folded telemetry.Snapshot
	n := 0
	for _, e := range evs {
		if e.Kind != "metrics" || e.Metrics == nil {
			continue
		}
		if n == 0 {
			folded = *e.Metrics
		} else {
			folded = folded.Add(*e.Metrics)
		}
		n++
	}
	return folded, n > 0
}

func readMetrics(path string) (telemetry.Snapshot, error) {
	var s telemetry.Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: invalid metrics JSON: %w", path, err)
	}
	return s, nil
}

// sumTol bounds the float drift tolerated between an accumulated sum
// and the final reading: deltas subtract and re-add float64 sums, so
// the fold can differ from the final in the last few ulps.
const sumTol = 1e-9

func floatClose(a, b float64) bool {
	return math.Abs(a-b) <= sumTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// compareSnapshots checks that got (the folded deltas) reproduces want
// (the recorded finals): counters, histogram buckets and counts
// exactly; float sums within tolerance; gauges last-reading.
func compareSnapshots(got, want telemetry.Snapshot) error {
	if len(got.Counters) != len(want.Counters) || len(got.Gauges) != len(want.Gauges) ||
		len(got.Histograms) != len(want.Histograms) {
		return fmt.Errorf("shape mismatch: folded %d/%d/%d metrics, final %d/%d/%d",
			len(got.Counters), len(got.Gauges), len(got.Histograms),
			len(want.Counters), len(want.Gauges), len(want.Histograms))
	}
	for i, c := range want.Counters {
		g := got.Counters[i]
		if g.Name != c.Name || g.Value != c.Value {
			return fmt.Errorf("counter %s: folded %d, final %d", c.Name, g.Value, c.Value)
		}
	}
	for i, w := range want.Gauges {
		g := got.Gauges[i]
		if g.Name != w.Name || g.Value != w.Value {
			return fmt.Errorf("gauge %s: folded last reading %d, final %d", w.Name, g.Value, w.Value)
		}
	}
	for i, w := range want.Histograms {
		g := got.Histograms[i]
		if g.Name != w.Name || g.Count != w.Count {
			return fmt.Errorf("histogram %s: folded count %d, final %d", w.Name, g.Count, w.Count)
		}
		if len(g.Buckets) != len(w.Buckets) {
			return fmt.Errorf("histogram %s: folded %d buckets, final %d", w.Name, len(g.Buckets), len(w.Buckets))
		}
		for j := range w.Buckets {
			if g.Buckets[j] != w.Buckets[j] {
				return fmt.Errorf("histogram %s bucket %d: folded %d, final %d", w.Name, j, g.Buckets[j], w.Buckets[j])
			}
		}
		if !floatClose(g.Sum, w.Sum) {
			return fmt.Errorf("histogram %s: folded sum %g, final %g", w.Name, g.Sum, w.Sum)
		}
	}
	return nil
}
