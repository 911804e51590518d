package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"dmp/internal/core"
	"dmp/internal/exp"
	"dmp/internal/telemetry"
)

// runMCF runs mcf at scale 1 on the enhanced DMP configuration (the
// configuration that exercises every probe hook: episodes, early exit,
// MDB, select-uops), optionally with a probe attached. cfm, when set,
// is the CFM source ("dynamic" exercises the merge-point predictor).
func runMCF(t *testing.T, loops bool, cfm string, p *core.Probe) *core.Stats {
	t.Helper()
	prg, err := exp.Annotated("mcf", 1)
	if err != nil {
		t.Fatalf("annotate: %v", err)
	}
	cfg := core.EnhancedDMPConfig()
	cfg.EnableLoopDiverge = loops
	cfg.CFMSource = cfm
	m, err := core.New(prg, cfg)
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	if p != nil {
		m.SetProbe(p)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return st
}

// TestObserversDoNotPerturb is the tentpole invariant: attaching every
// sink at once leaves core.Stats byte-identical to an unobserved run
// (so golden experiment tables cannot move), and each sink's own
// aggregation agrees with the machine's: the episode timeline's
// exit-case tally equals Stats.ExitCases, the interval CSV's summed
// deltas equal the final Stats, and the Chrome trace is valid non-empty
// JSON. The dynamic-CFM run gives the merge-predictor columns non-zero
// sums.
func TestObserversDoNotPerturb(t *testing.T) {
	for _, tc := range []struct {
		name  string
		loops bool
		cfm   string
	}{{"loops=false", false, ""}, {"loops=true", true, ""}, {"cfm=dynamic", false, "dynamic"}} {
		loops, cfm := tc.loops, tc.cfm
		t.Run(tc.name, func(t *testing.T) {
			base := runMCF(t, loops, cfm, nil)

			var ptBuf, evBuf, ivBuf bytes.Buffer
			trace := NewPipetrace(&ptBuf, FormatChrome)
			elog := NewEpisodeLog(&evBuf)
			samp := NewIntervalSampler(&ivBuf, 5000)
			feed := telemetry.NewFeed(nil)
			feed.Subscribe(telemetry.NewProgress(io.Discard, false).Event)
			st := runMCF(t, loops, cfm, Tee(trace.Probe(), elog.Probe(), samp.Probe(), ProgressProbe(feed)))
			if err := trace.Close(); err != nil {
				t.Fatalf("pipetrace close: %v", err)
			}
			if err := elog.Close(); err != nil {
				t.Fatalf("episode log close: %v", err)
			}
			if err := samp.Close(); err != nil {
				t.Fatalf("sampler close: %v", err)
			}

			// Byte-identical Stats.
			a, b := *base, *st
			if a != b {
				t.Errorf("observed run diverged from unobserved run:\n  base: %+v\n  obs:  %+v", a, b)
			}

			// Episode timeline attribution == the machine's Table-1 tally.
			if elog.Cases() != st.ExitCases {
				t.Errorf("episode log cases %v != Stats.ExitCases %v", elog.Cases(), st.ExitCases)
			}
			if st.Episodes == 0 {
				t.Fatal("run produced no episodes; test exercises nothing")
			}
			if !strings.Contains(evBuf.String(), `"event":"enter"`) ||
				!strings.Contains(evBuf.String(), `"event":"resolve"`) {
				t.Error("episode timeline missing enter/resolve events")
			}

			// Chrome trace: valid JSON, non-empty, per-uop args present.
			var events []map[string]any
			if err := json.Unmarshal(ptBuf.Bytes(), &events); err != nil {
				t.Fatalf("chrome trace does not parse: %v", err)
			}
			if len(events) == 0 {
				t.Fatal("chrome trace is empty")
			}
			for _, e := range events[:1] {
				for _, k := range []string{"name", "ph", "ts", "dur", "args"} {
					if _, ok := e[k]; !ok {
						t.Errorf("trace event missing %q: %v", k, e)
					}
				}
			}

			// Interval CSV column sums == final Stats.
			checkIntervalSums(t, ivBuf.String(), st)
			if cfm == "dynamic" && (st.MergeHits == 0 || st.MergeTrainings == 0 || st.DynCFMEpisodes == 0) {
				t.Errorf("dynamic-CFM run left the merge counters at zero: %+v", st)
			}
		})
	}
}

// intervalColumns names the interval CSV column of every uint64 counter
// of core.Stats (array elements as Field[i]).
var intervalColumns = map[string]string{
	"Cycles": "cycles", "RetiredInsts": "retired", "RetiredFalse": "retired_false",
	"RetiredSelects": "selects", "RetiredMarkers": "markers",
	"FetchedInsts": "fetched", "FetchedMarkers": "fetched_markers",
	"FetchedWrongCD": "wrong_cd", "FetchedWrongCI": "wrong_ci",
	"ExecutedInsts": "exec", "ExecutedSelects": "exec_selects", "ExecutedMarkers": "exec_markers",
	"RetiredBranches": "branches", "RetiredMispredicts": "mispredicts", "Flushes": "flushes",
	"Episodes": "episodes", "EarlyExits": "early_exits", "MDBConversions": "mdb",
	"ExitCases[0]": "exit0", "ExitCases[1]": "exit1", "ExitCases[2]": "exit2", "ExitCases[3]": "exit3",
	"ExitCases[4]": "exit4", "ExitCases[5]": "exit5", "ExitCases[6]": "exit6",
	"LowConfCorrect": "lowconf_ok", "LowConfWrong": "lowconf_bad",
	"L1IMisses": "l1i", "L1DMisses": "l1d", "L2Misses": "l2",
	"LoadStalls": "load_stalls", "OraclePauses": "oracle_pauses", "OracleResumes": "oracle_resumes",
	"FetchedUops": "uops", "MergeHits": "merge_hits", "MergeMisses": "merge_misses",
	"MergeEvictions": "merge_evictions", "MergeTrainings": "merge_trainings",
	"MergeMispredicts": "merge_mispredicts", "DynCFMEpisodes": "dyn_cfm_episodes",
}

// checkIntervalSums sums every delta column of the interval CSV and
// compares against the final Stats counter it samples. Every uint64
// counter of Stats must have a column.
func checkIntervalSums(t *testing.T, csv string, st *core.Stats) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) < 2 {
		t.Fatalf("interval CSV has no data rows:\n%s", csv)
	}
	cols := strings.Split(strings.TrimSpace(lines[0]), ",")
	sums := make(map[string]uint64, len(cols))
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != len(cols) {
			t.Fatalf("row has %d fields, header has %d: %q", len(fields), len(cols), line)
		}
		for i, f := range fields {
			if cols[i] == "cycle" || cols[i] == "ipc" {
				continue // absolute / derived columns
			}
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				t.Fatalf("column %s: %v", cols[i], err)
			}
			sums[cols[i]] += v
		}
	}
	want := map[string]uint64{}
	v := reflect.ValueOf(*st)
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		names, vals := []string{f.Name}, []reflect.Value{fv}
		if f.Type.Kind() == reflect.Array {
			names, vals = nil, nil
			for j := 0; j < fv.Len(); j++ {
				names = append(names, fmt.Sprintf("%s[%d]", f.Name, j))
				vals = append(vals, fv.Index(j))
			}
		}
		for j, name := range names {
			if vals[j].Kind() != reflect.Uint64 {
				continue
			}
			col, ok := intervalColumns[name]
			if !ok {
				t.Errorf("Stats.%s has no interval CSV column", name)
				continue
			}
			want[col] = vals[j].Uint()
		}
	}
	if len(want) != len(cols)-2 {
		t.Errorf("Stats has %d counters with columns, CSV has %d delta columns", len(want), len(cols)-2)
	}
	header := make(map[string]bool, len(cols))
	for _, c := range cols {
		header[c] = true
	}
	for col, w := range want {
		if !header[col] {
			t.Errorf("interval CSV has no column %s", col)
		} else if sums[col] != w {
			t.Errorf("summed column %s = %d, final Stats = %d", col, sums[col], w)
		}
	}
}

// TestPipetraceText smoke-checks the text renderer: every retired and
// squashed uop gets a line with its stage cycles.
func TestPipetraceText(t *testing.T) {
	var buf bytes.Buffer
	trace := NewPipetrace(&buf, FormatText)
	runMCF(t, false, "", trace.Probe())
	if err := trace.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "retire=") {
		t.Error("text pipetrace has no retire lines")
	}
	if !strings.Contains(out, "select-uop") {
		t.Error("text pipetrace records no select-uops on an enhanced DMP run")
	}
	n := strings.Count(out, "\n")
	if n < 1000 {
		t.Errorf("text pipetrace suspiciously short: %d lines", n)
	}
}

// TestTee pins the Tick multiplexing: children with different cadences
// each fire exactly on their own cycle multiples, and the merged
// cadence is the gcd.
func TestTee(t *testing.T) {
	var a, b []uint64
	pa := &core.Probe{TickEvery: 6, Tick: func(c uint64, _ *core.Stats) { a = append(a, c) }}
	pb := &core.Probe{TickEvery: 10, Tick: func(c uint64, _ *core.Stats) { b = append(b, c) }}
	tee := Tee(pa, pb, nil)
	if tee.TickEvery != 2 {
		t.Fatalf("merged TickEvery = %d, want gcd 2", tee.TickEvery)
	}
	for c := uint64(2); c <= 30; c += 2 {
		tee.Tick(c, nil)
	}
	if want := []uint64{6, 12, 18, 24, 30}; !equalU64(a, want) {
		t.Errorf("child a fired at %v, want %v", a, want)
	}
	if want := []uint64{10, 20, 30}; !equalU64(b, want) {
		t.Errorf("child b fired at %v, want %v", b, want)
	}

	// A single probe passes through unchanged; an empty tee is inert.
	if got := Tee(pa); got != pa {
		t.Error("single-probe Tee did not pass through")
	}
	if got := Tee(); got.Uop != nil || got.Tick != nil || got.Done != nil {
		t.Error("empty Tee has callbacks")
	}
}

// TestProgressFinalSummary pins dmpsim's progress path, ProgressProbe
// feeding telemetry.Progress: a renderer whose period never elapses
// still prints exactly one line — the final totals, matching the run's
// Stats — so even a run shorter than one period says what happened. A
// short-period renderer additionally prints rate lines.
func TestProgressFinalSummary(t *testing.T) {
	render := func(every time.Duration) (string, *core.Stats) {
		var buf bytes.Buffer
		feed := telemetry.NewFeed(nil)
		pr := telemetry.NewProgress(&buf, false)
		pr.Every = every
		feed.Subscribe(pr.Event)
		st := runMCF(t, false, "", ProgressProbe(feed))
		pr.Finish()
		return buf.String(), st
	}

	out, st := render(time.Hour)
	want := fmt.Sprintf("done: retired %d insts in %d cycles (IPC %.3f)", st.RetiredInsts, st.Cycles, st.IPC())
	if !strings.Contains(out, want) {
		t.Errorf("final summary missing or wrong:\n  got  %q\n  want containing %q", out, want)
	}
	if n := strings.Count(out, "\n"); n != 1 {
		t.Errorf("hour-period renderer printed %d lines, want just the summary:\n%s", n, out)
	}

	out, _ = render(time.Nanosecond)
	if !strings.Contains(out, "Mcycles/s") || !strings.Contains(out, "sim-IPC") {
		t.Errorf("nanosecond-period renderer printed no progress lines:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.HasPrefix(lines[len(lines)-1], want) {
		t.Errorf("short-period renderer's last line is not the final summary:\n%s", out)
	}
}

// TestTeeTickCadenceEdges covers the Tick-merging corners: a lone
// tick sink with no cadence gets the default; a zero cadence mixed
// with a nonzero one is defaulted before the gcd; and huge coprime
// cadences degrade to a gcd of 1 without wrapping, with each child
// still firing only on its own multiples.
func TestTeeTickCadenceEdges(t *testing.T) {
	fired := func(dst *[]uint64) func(uint64, *core.Stats) {
		return func(c uint64, _ *core.Stats) { *dst = append(*dst, c) }
	}

	// Single tick sink, unset cadence: defaulted, passed through.
	var solo []uint64
	ps := &core.Probe{Tick: fired(&solo)}
	if tee := Tee(ps); tee.TickEvery != core.DefaultTickEvery {
		t.Errorf("solo unset cadence = %d, want default %d", tee.TickEvery, core.DefaultTickEvery)
	}

	// TickEvery=0 mixed with nonzero: the zero child runs at the
	// default cadence and the merged cadence is the gcd of the pair.
	var a, b []uint64
	def := uint64(core.DefaultTickEvery)
	pa := &core.Probe{Tick: fired(&a)}
	pb := &core.Probe{TickEvery: 3 * def, Tick: fired(&b)}
	tee := Tee(pa, pb)
	if tee.TickEvery != def {
		t.Fatalf("merged cadence = %d, want %d", tee.TickEvery, def)
	}
	for c := def; c <= 3*def; c += def {
		tee.Tick(c, nil)
	}
	if want := []uint64{def, 2 * def, 3 * def}; !equalU64(a, want) {
		t.Errorf("defaulted child fired at %v, want %v", a, want)
	}
	if want := []uint64{3 * def}; !equalU64(b, want) {
		t.Errorf("3x child fired at %v, want %v", b, want)
	}

	// Huge coprime cadences: gcd collapses to 1 (tick every cycle)
	// and the per-child re-check keeps firing exact near 2^62.
	var c, d []uint64
	big := uint64(1) << 62
	pc := &core.Probe{TickEvery: big, Tick: fired(&c)}
	pd := &core.Probe{TickEvery: big - 1, Tick: fired(&d)}
	tee = Tee(pc, pd)
	if tee.TickEvery != 1 {
		t.Fatalf("coprime merged cadence = %d, want 1", tee.TickEvery)
	}
	tee.Tick(big-1, nil)
	tee.Tick(big, nil)
	tee.Tick(2*(big-1), nil)
	if want := []uint64{big}; !equalU64(c, want) {
		t.Errorf("2^62 child fired at %v, want %v", c, want)
	}
	if want := []uint64{big - 1, 2 * (big - 1)}; !equalU64(d, want) {
		t.Errorf("2^62-1 child fired at %v, want %v", d, want)
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
