// Command dmpobs summarizes the observability artifacts dmpsim writes.
//
// Usage:
//
//	dmpobs -events mcf.events.jsonl   # episode timeline summary
//	dmpobs -validate mcf.trace.json   # check a Chrome trace parses
//	dmpobs -manifest mcf.sample.json  # validate a sampled run's manifest
//	dmpobs -telemetry telemetry/      # validate a -telemetry-out directory
//
// -events reads an episode timeline (dmpsim -events) and prints
// per-event totals, the Table-1 exit-case breakdown, mean alternate-path
// fetch length, mean enter-to-resolve episode duration, and the fetch
// oracle's pause/resume counts. -validate parses a Chrome trace_event
// file (dmpsim -pipetrace foo.json) and reports the event count,
// exiting nonzero if the JSON is malformed. -manifest checks a sampled
// run's interval manifest (dmpsim -sample-manifest) for internal
// consistency — interval count, detailed-instruction accounting,
// per-interval IPC arithmetic, monotonic interval placement — and prints
// a summary, exiting nonzero on any violation. -telemetry checks the
// artifact directory a dmpexp/dmpsim -telemetry-out run records: span
// nesting in spans.json is well-formed, the event stream in
// events.jsonl is properly framed, and the streamed metrics deltas fold
// back into exactly the finals in metrics.json.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"dmp/internal/sample"
)

// epLine mirrors the JSONL keys internal/obs.EpisodeLog writes. Oracle
// lines carry only cycle/event/steps; episode lines carry the rest.
type epLine struct {
	Cycle    uint64 `json:"cycle"`
	Ep       uint64 `json:"ep"`
	Event    string `json:"event"`
	Case     *int   `json:"case"`
	CaseName string `json:"caseName"`
	PC       uint64 `json:"pc"`
	CFM      uint64 `json:"cfm"`
	Alt      uint64 `json:"alt"`
	Loop     bool   `json:"loop"`
	Dual     bool   `json:"dual"`
	Dyn      bool   `json:"dyn"` // CFM supplied by the runtime merge-point predictor
	Steps    uint64 `json:"steps"`
}

func main() {
	var (
		events   = flag.String("events", "", "summarize this episode timeline (JSONL from dmpsim -events)")
		validate = flag.String("validate", "", "parse this Chrome trace JSON (from dmpsim -pipetrace x.json) and report its event count")
		manifest = flag.String("manifest", "", "validate this sampled-run interval manifest (from dmpsim -sample-manifest)")
		telem    = flag.String("telemetry", "", "validate this telemetry artifact directory (from dmpexp/dmpsim -telemetry-out)")
	)
	flag.Parse()

	if *events == "" && *validate == "" && *manifest == "" && *telem == "" {
		fmt.Fprintln(os.Stderr, "dmpobs: need -events, -validate, -manifest or -telemetry (see -help)")
		os.Exit(2)
	}
	if *validate != "" {
		if err := validateTrace(*validate); err != nil {
			fmt.Fprintf(os.Stderr, "dmpobs: %s: %v\n", *validate, err)
			os.Exit(1)
		}
	}
	if *manifest != "" {
		if err := validateManifest(*manifest); err != nil {
			fmt.Fprintf(os.Stderr, "dmpobs: %s: %v\n", *manifest, err)
			os.Exit(1)
		}
	}
	if *telem != "" {
		if err := validateTelemetry(*telem); err != nil {
			fmt.Fprintf(os.Stderr, "dmpobs: %s: %v\n", *telem, err)
			os.Exit(1)
		}
	}
	if *events != "" {
		if err := summarizeEvents(*events); err != nil {
			fmt.Fprintf(os.Stderr, "dmpobs: %s: %v\n", *events, err)
			os.Exit(1)
		}
	}
}

// validateManifest checks a sampled run's interval accounting. It reads
// the manifest alone — no re-simulation — and verifies the invariants
// internal/sample promises: the interval list matches k, the detailed
// instruction and cycle sums decompose into prefix plus intervals, every
// interval's IPC is its own retired/cycles, and intervals appear in
// program order. checkManifest is split out so the contract is testable.
func validateManifest(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m sample.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("invalid manifest JSON: %w", err)
	}
	if err := checkManifest(&m); err != nil {
		return err
	}
	detPct := 100 * float64(m.DetRetired) / float64(m.TotalInsts)
	fmt.Printf("%s: consistent sampled-run manifest\n", path)
	fmt.Printf("  %d insts: prefix %d exact, %d intervals of ~%d (detailed %.1f%%), period %d\n",
		m.TotalInsts, m.PrefRetired, m.K, m.IntervalLen, detPct, m.Period)
	fmt.Printf("  IPC estimate %.3f ± %.3f (95%% CI; interval mean %.3f)\n", m.IPC, m.CI95, m.IPCMean)
	if tm := m.Timing; tm != nil {
		total := tm.PrefixSeconds + tm.WarmSeconds + tm.SnapshotSeconds + tm.DetailedSeconds + tm.ExtrapolateSeconds
		fmt.Printf("  host time %.3fs: prefix %.3f, warm %.3f, snapshot %.3f, detailed %.3f, extrapolate %.3f\n",
			total, tm.PrefixSeconds, tm.WarmSeconds, tm.SnapshotSeconds, tm.DetailedSeconds, tm.ExtrapolateSeconds)
	}
	return nil
}

func checkManifest(m *sample.Manifest) error {
	if m.K != len(m.Intervals) {
		return fmt.Errorf("k = %d but %d intervals listed", m.K, len(m.Intervals))
	}
	if m.K == 0 {
		return fmt.Errorf("manifest has no intervals")
	}
	var sumR, sumC uint64
	var prev uint64
	for i, iv := range m.Intervals {
		if iv.Index != i {
			return fmt.Errorf("interval %d: index %d out of order", i, iv.Index)
		}
		if iv.Start < prev {
			return fmt.Errorf("interval %d: start %d before previous interval at %d", i, iv.Start, prev)
		}
		prev = iv.Start
		if iv.Retired == 0 || iv.Cycles == 0 {
			return fmt.Errorf("interval %d: empty measurement (%d retired, %d cycles)", i, iv.Retired, iv.Cycles)
		}
		if want := float64(iv.Retired) / float64(iv.Cycles); iv.IPC != want {
			return fmt.Errorf("interval %d: ipc %g but retired/cycles = %g", i, iv.IPC, want)
		}
		sumR += iv.Retired
		sumC += iv.Cycles
	}
	if got := m.PrefRetired + sumR; got != m.DetRetired {
		return fmt.Errorf("detailed_retired %d but prefix %d + interval sum %d = %d",
			m.DetRetired, m.PrefRetired, sumR, got)
	}
	if got := m.PrefCycles + sumC; got != m.DetCycles {
		return fmt.Errorf("detailed_cycles %d but prefix %d + interval sum %d = %d",
			m.DetCycles, m.PrefCycles, sumC, got)
	}
	if m.DetRetired > m.TotalInsts {
		return fmt.Errorf("detailed_retired %d exceeds total_insts %d", m.DetRetired, m.TotalInsts)
	}
	if m.IPC <= 0 || m.CI95 < 0 {
		return fmt.Errorf("implausible estimate: ipc %g, ci95 %g", m.IPC, m.CI95)
	}
	return nil
}

// validateTrace checks a Chrome trace file with checkTrace and reports
// its event count.
func validateTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	n, err := checkTrace(data)
	if err != nil {
		return err
	}
	fmt.Printf("%s: valid Chrome trace, %d events\n", path, n)
	return nil
}

// checkTrace unmarshals a whole trace as a JSON array and checks that
// every event carries the trace_event fields Perfetto needs. It returns
// the event count.
func checkTrace(data []byte) (int, error) {
	var evs []map[string]any
	if err := json.Unmarshal(data, &evs); err != nil {
		return 0, fmt.Errorf("invalid Chrome trace JSON: %w", err)
	}
	if len(evs) == 0 {
		return 0, fmt.Errorf("trace is empty")
	}
	for i, ev := range evs {
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				return 0, fmt.Errorf("trace event %d missing %q field", i, k)
			}
		}
	}
	return len(evs), nil
}

func summarizeEvents(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var (
		counts    = map[string]uint64{}
		cases     [7]uint64
		caseNames [7]string
		enterAt   = map[uint64]uint64{} // episode id -> enter cycle
		durSum    uint64                // enter-to-resolve cycles
		durN      uint64
		altSum    uint64 // alternate-path uops fetched per resolved episode
		altN      uint64
		dynEps    uint64 // episodes entered from a learned (predictor) CFM
		pauses    uint64
		resumes   uint64
		lines     int
	)
	caseNames[0] = "squashed"

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		lines++
		var ev epLine
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("line %d: %w", lines, err)
		}
		counts[ev.Event]++
		switch ev.Event {
		case "enter":
			enterAt[ev.Ep] = ev.Cycle
			if ev.Dyn {
				dynEps++
			}
		case "resolve", "squash":
			if ev.Case != nil && *ev.Case >= 0 && *ev.Case < len(cases) {
				cases[*ev.Case]++
				caseNames[*ev.Case] = ev.CaseName
			}
			if at, ok := enterAt[ev.Ep]; ok && ev.Event == "resolve" {
				durSum += ev.Cycle - at
				durN++
				delete(enterAt, ev.Ep)
			}
			altSum += ev.Alt
			altN++
		case "oracle-pause":
			pauses++
		case "oracle-resume":
			resumes++
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if lines == 0 {
		return fmt.Errorf("timeline is empty")
	}

	fmt.Printf("%s: %d events\n\n", path, lines)
	fmt.Println("event totals:")
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-14s %10d\n", n, counts[n])
	}

	var total uint64
	for _, c := range cases {
		total += c
	}
	if total > 0 {
		fmt.Println("\nexit-case attribution (Table 1; case 0 = squashed):")
		for i, c := range cases {
			if c == 0 {
				continue
			}
			name := caseNames[i]
			if name == "" {
				name = fmt.Sprintf("case%d", i)
			}
			fmt.Printf("  %-10s %10d  (%5.1f%%)\n", name, c, 100*float64(c)/float64(total))
		}
	}
	if durN > 0 {
		fmt.Printf("\nepisodes resolved: %d, mean enter-to-resolve %.1f cycles\n",
			durN, float64(durSum)/float64(durN))
	}
	if altN > 0 {
		fmt.Printf("mean alternate-path uops fetched: %.1f\n", float64(altSum)/float64(altN))
	}
	if dynEps > 0 {
		fmt.Printf("episodes from learned (dynamic) CFM points: %d\n", dynEps)
	}
	if pauses+resumes > 0 {
		fmt.Printf("fetch oracle: %d pauses, %d resumes\n", pauses, resumes)
	}
	return nil
}
