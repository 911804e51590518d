package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dmp/internal/core"
	"dmp/internal/exp"
	"dmp/internal/sched"
	"dmp/internal/store"
	"dmp/internal/telemetry"
)

// testIDs / testBenches keep the HTTP tests fast: a small experiment
// subset over two short benchmarks at scale 1.
var (
	testIDs     = []string{"table3", "fig1", "fig7"}
	testBenches = []string{"mcf", "twolf"}
)

func postJSON(t *testing.T, url, client string, body any) (*http.Response, RunStatus) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-DMP-Client", client)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RunStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp, st
}

func experimentsBody(ids, benches []string) map[string]any {
	return map[string]any{"ids": ids, "benchmarks": benches, "scale": 1}
}

func tableTexts(t *testing.T, st RunStatus) []string {
	t.Helper()
	if st.State != "done" {
		t.Fatalf("run state %q (error %q), want done", st.State, st.Error)
	}
	var texts []string
	for _, tb := range st.Tables {
		if tb.Error != "" {
			t.Fatalf("table %s failed: %s", tb.ID, tb.Error)
		}
		texts = append(texts, tb.Text)
	}
	return texts
}

// TestWarmStoreServesWithoutSimulating is the acceptance path: a first
// daemon fills the store, a second daemon process (fresh in-memory
// cache, same directory) serves the identical request byte-for-byte
// with zero simulations, and the remote tables match a local run.
func TestWarmStoreServesWithoutSimulating(t *testing.T) {
	dir := t.TempDir()
	defer exp.SetStore(nil)

	exp.ResetResults()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{Store: st1, Admit: sched.AdmitOptions{MaxConcurrent: 4}})
	ts1 := httptest.NewServer(srv1)
	resp, run1 := postJSON(t, ts1.URL+"/v1/experiments?wait=1", "warm-a", experimentsBody(testIDs, testBenches))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	cold := tableTexts(t, run1)
	if run1.Counts == nil || run1.Counts.Simulated == 0 {
		t.Fatalf("cold run reported no simulations: %+v", run1.Counts)
	}
	ts1.Close()
	srv1.Close()
	if st1.Len() == 0 {
		t.Fatal("cold run persisted nothing")
	}

	// "Second process": drop the in-memory cache, reopen the store.
	exp.ResetResults()
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Config{Store: st2, Admit: sched.AdmitOptions{MaxConcurrent: 4}})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer srv2.Close()
	_, run2 := postJSON(t, ts2.URL+"/v1/experiments?wait=1", "warm-b", experimentsBody(testIDs, testBenches))
	warm := tableTexts(t, run2)
	if run2.Counts.Simulated != 0 {
		t.Fatalf("warm-store run simulated %d times, want 0 (counts %+v)", run2.Counts.Simulated, run2.Counts)
	}
	if run2.Counts.StoreHits == 0 {
		t.Fatal("warm-store run reported no store hits")
	}
	for i := range cold {
		if cold[i] != warm[i] {
			t.Fatalf("table %s differs between cold and warm-store runs:\n--- cold ---\n%s--- warm ---\n%s",
				testIDs[i], cold[i], warm[i])
		}
	}

	// The remote tables are byte-identical to a plain local run.
	exp.SetStore(nil)
	exp.ResetResults()
	o := exp.DefaultOptions()
	o.Scale = 1
	o.Benchmarks = testBenches
	for i, id := range testIDs {
		tb, err := exp.All[id](o)
		if err != nil {
			t.Fatalf("local %s: %v", id, err)
		}
		if tb.String() != cold[i] {
			t.Fatalf("remote table %s differs from local:\n--- local ---\n%s--- remote ---\n%s",
				id, tb.String(), cold[i])
		}
	}
}

// TestConcurrentClientsCoalesce asserts the dedup guarantee: many
// clients requesting the same experiment concurrently trigger exactly
// the simulations one client would, the rest resolving as cache hits.
func TestConcurrentClientsCoalesce(t *testing.T) {
	// Baseline: how many unique simulations does one run need?
	exp.ResetResults()
	o := exp.DefaultOptions()
	o.Scale = 1
	o.Benchmarks = testBenches
	if _, err := exp.All["table3"](o); err != nil {
		t.Fatal(err)
	}
	unique := exp.ResultCache().Counts().Computed
	if unique == 0 {
		t.Fatal("table3 ran no simulations")
	}

	exp.ResetResults()
	srv := New(Config{Admit: sched.AdmitOptions{MaxConcurrent: 8, MaxQueuedPerClient: 2, MaxQueuedTotal: 32}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, st := postJSON(t, ts.URL+"/v1/experiments?wait=1", fmt.Sprintf("client-%d", i),
				experimentsBody([]string{"table3"}, testBenches))
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			if st.State != "done" {
				errs[i] = fmt.Errorf("client %d: state %q error %q", i, st.State, st.Error)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	c := exp.ResultCache().Counts()
	if c.Computed != unique {
		t.Fatalf("%d clients computed %d simulations, want %d (coalescing failed; counts %+v)",
			clients, c.Computed, unique, c)
	}
	if c.Hits+c.Computed < clients*unique {
		t.Fatalf("hits %d + computed %d < %d requests' worth of lookups", c.Hits, c.Computed, clients*unique)
	}
}

// TestRunEndpoint covers the single-run path and its error statuses.
func TestRunEndpoint(t *testing.T) {
	exp.ResetResults()
	srv := New(Config{Admit: sched.AdmitOptions{MaxConcurrent: 2}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	resp, st := postJSON(t, ts.URL+"/v1/runs?wait=1", "run-a",
		map[string]any{"bench": "mcf", "mode": "enhanced", "scale": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if st.State != "done" || st.Stats == nil || st.Stats.RetiredInsts == 0 {
		t.Fatalf("unexpected run result: state %q stats %+v", st.State, st.Stats)
	}

	// A repeat is a cache hit, not a new simulation.
	resp2, st2 := postJSON(t, ts.URL+"/v1/runs?wait=1", "run-a",
		map[string]any{"bench": "mcf", "mode": "enhanced", "scale": 1})
	if resp2.StatusCode != http.StatusOK || st2.Counts.Simulated != 0 {
		t.Fatalf("repeat run: status %d counts %+v, want 200 and 0 simulated", resp2.StatusCode, st2.Counts)
	}
	if *st.Stats != *st2.Stats {
		t.Fatal("repeat run returned different stats")
	}

	profiles := counterValue(t, "dmp_exp_profile_runs_total")
	for name, body := range map[string]map[string]any{
		"unknown bench":      {"bench": "nope"},
		"unknown mode":       {"bench": "mcf", "mode": "warp"},
		"missing bench":      {"mode": "dmp"},
		"unknown field":      {"bench": "mcf", "turbo": true},
		"unknown cfm_source": {"bench": "mcf", "cfm_source": "oracle"},
		"scale over bound":   {"bench": "mcf", "scale": maxScale + 1},
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/runs?wait=1", "run-a", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if got := counterValue(t, "dmp_exp_profile_runs_total") - profiles; got != 0 {
		t.Errorf("bad requests ran %d profiles, want 0", got)
	}

	resp3, err := http.Get(ts.URL + "/v1/runs/r999999")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", resp3.StatusCode)
	}
}

// TestClosedServerSheds pins the deterministic 429 path: a stopped
// admitter refuses every submission with Retry-After set.
func TestClosedServerSheds(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	srv.Close()

	resp, _ := postJSON(t, ts.URL+"/v1/runs?wait=1", "shed-a", map[string]any{"bench": "mcf"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
}

// TestSSEEvents streams a run's event feed: initial status, at least
// one telemetry event, and the final done event with the completed
// status.
func TestSSEEvents(t *testing.T) {
	exp.ResetResults()
	tel := telemetry.New(telemetry.Options{})
	telemetry.Enable(tel)
	defer telemetry.Enable(nil)

	srv := New(Config{Admit: sched.AdmitOptions{MaxConcurrent: 2}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	resp, st := postJSON(t, ts.URL+"/v1/runs", "sse-a", map[string]any{"bench": "twolf", "scale": 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}

	stream, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	events := map[string]int{}
	var final RunStatus
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	current := ""
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			current = ev
			events[ev]++
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && current == "done" {
			if err := json.Unmarshal([]byte(data), &final); err != nil {
				t.Fatalf("done payload: %v", err)
			}
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events["status"] != 1 || events["done"] != 1 {
		t.Fatalf("events %v, want one status and one done", events)
	}
	if final.State != "done" || final.Stats == nil {
		t.Fatalf("final status %+v, want a completed run with stats", final)
	}
}

// TestExperimentsEndpointRejects pins the 400 answers for experiment
// ids that exp.Resolve refuses and for a scale over the bound, before
// anything is admitted or profiled.
func TestExperimentsEndpointRejects(t *testing.T) {
	srv := New(Config{Admit: sched.AdmitOptions{MaxConcurrent: 2}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	profiles := counterValue(t, "dmp_exp_profile_runs_total")
	for name, body := range map[string]map[string]any{
		"empty ids":         {"ids": []string{}},
		"missing ids":       {"scale": 1},
		"unknown id":        {"ids": []string{"fig7", "fig99"}},
		"all mixed with id": {"ids": []string{"all", "fig7"}},
		"scale over bound":  {"ids": []string{"fig7"}, "benchmarks": []string{"mcf"}, "scale": maxScale + 1},
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/experiments?wait=1", "reject-a", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if got := counterValue(t, "dmp_exp_profile_runs_total") - profiles; got != 0 {
		t.Errorf("rejected requests ran %d profiles, want 0", got)
	}
}

// TestRunExperimentsOrder pins the shared runner's contract: results
// arrive in requested order whatever order the experiments finish in,
// each with its own start/done feed events, and the done event carries
// the elapsed time.
func TestRunExperimentsOrder(t *testing.T) {
	exp.ResetResults()
	tel := telemetry.New(telemetry.Options{})
	telemetry.Enable(tel)
	defer telemetry.Enable(nil)
	var mu sync.Mutex
	events := map[string][]telemetry.Event{}
	tel.Feed().Subscribe(func(ev telemetry.Event) {
		if ev.Kind == "experiment" {
			mu.Lock()
			events[ev.Name] = append(events[ev.Name], ev)
			mu.Unlock()
		}
	})

	o := exp.DefaultOptions()
	o.Scale = 1
	o.Benchmarks = testBenches
	// fig7 needs five suites and table2 none, so completion order
	// differs from the requested one.
	ids := []string{"fig7", "table3", "table2"}
	var got []string
	RunExperiments(ids, o, func(id string, tb *exp.Table, err error, elapsed time.Duration) {
		if err != nil {
			t.Errorf("%s: %v", id, err)
			return
		}
		if tb.ID != id {
			t.Errorf("emitted %s with table %s", id, tb.ID)
		}
		if elapsed <= 0 {
			t.Errorf("%s: elapsed %v", id, elapsed)
		}
		got = append(got, id)
	})
	if strings.Join(got, " ") != strings.Join(ids, " ") {
		t.Fatalf("emitted %v, want %v", got, ids)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range ids {
		evs := events[id]
		if len(evs) != 2 || evs[0].Msg != "start" || evs[1].Msg != "done" || evs[1].V <= 0 {
			t.Errorf("%s: feed events %+v, want start then done with elapsed", id, evs)
		}
	}
}

// TestRunExperimentsKeepsSuccesses pins that one failing experiment
// does not drop another's table.
func TestRunExperimentsKeepsSuccesses(t *testing.T) {
	o := exp.DefaultOptions()
	o.Scale = 1
	o.Benchmarks = []string{"nope"}
	tables := map[string]*exp.Table{}
	errs := map[string]error{}
	RunExperiments([]string{"table3", "table2"}, o, func(id string, tb *exp.Table, err error, _ time.Duration) {
		tables[id], errs[id] = tb, err
	})
	if errs["table3"] == nil {
		t.Error("table3 over an unknown benchmark succeeded")
	}
	if errs["table2"] != nil || tables["table2"] == nil || len(tables["table2"].Rows) == 0 {
		t.Errorf("table2 lost beside the failing table3: table %v, err %v", tables["table2"], errs["table2"])
	}
}

// TestLoopsRunMatchesLoopDivergeLeg pins what RunRequest.Loops means: a
// loops:true run is the LoopDiverge experiment's enhanced+loops leg. It
// reuses the leg's cache entry, its episodes exceed the enhanced run's by
// the table's loop-episodes cell, and its Stats equal a direct
// loop-diverge simulation of the annotated program.
func TestLoopsRunMatchesLoopDivergeLeg(t *testing.T) {
	exp.Reset()
	defer exp.Reset()
	tb, err := exp.LoopDiverge(exp.Options{Scale: 1, Benchmarks: []string{"gzip"}})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Admit: sched.AdmitOptions{MaxConcurrent: 2}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	serve := func(loops bool) RunStatus {
		t.Helper()
		body := map[string]any{"bench": "gzip", "mode": "enhanced", "scale": 1, "loops": loops}
		resp, run := postJSON(t, ts.URL+"/v1/runs?wait=1", "loops", body)
		if resp.StatusCode != http.StatusOK || run.State != "done" {
			t.Fatalf("status %d state %q error %q", resp.StatusCode, run.State, run.Error)
		}
		if run.Counts.Simulated != 0 || run.Counts.Reused != 1 {
			t.Errorf("loops=%v counts %+v, want the experiment's cached leg reused", loops, run.Counts)
		}
		return run
	}
	loops, enh := serve(true), serve(false)
	if got, want := strconv.FormatUint(loops.Stats.Episodes-enh.Stats.Episodes, 10), tb.Rows[0][4]; got != want {
		t.Errorf("loops run has %s more episodes than enhanced, table says %s", got, want)
	}

	p, err := exp.Annotated("gzip", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.EnhancedDMPConfig()
	cfg.EnableLoopDiverge = true
	m, err := core.New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := *loops.Stats
	if got != *want {
		t.Errorf("loops run differs from a loop-diverge simulation\nserved: %v\ndirect: %v", &got, want)
	}
}

// TestLoopsRunPersistsUnderLoopsHash covers the store key of a loop
// diverge run: it persists with EnableLoopDiverge in its config under
// the hash of exp.Annotated's program, whose marks include the loop
// branches, and a restarted server answers the same request from the
// store without simulating.
func TestLoopsRunPersistsUnderLoopsHash(t *testing.T) {
	dir := t.TempDir()
	defer exp.SetStore(nil)
	body := map[string]any{"bench": "gzip", "mode": "enhanced", "scale": 1, "loops": true}
	serveOnce := func(client string) (*store.Store, RunStatus) {
		t.Helper()
		exp.Reset()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Store: st, Admit: sched.AdmitOptions{MaxConcurrent: 2}})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		defer srv.Close()
		resp, run := postJSON(t, ts.URL+"/v1/runs?wait=1", client, body)
		if resp.StatusCode != http.StatusOK || run.State != "done" {
			t.Fatalf("status %d state %q error %q", resp.StatusCode, run.State, run.Error)
		}
		return st, run
	}

	st, cold := serveOnce("loops-a")
	if cold.Counts.Simulated != 1 {
		t.Fatalf("cold run counts %+v, want 1 simulated", cold.Counts)
	}
	p, err := exp.Annotated("gzip", 1)
	if err != nil {
		t.Fatal(err)
	}
	loopMarks := 0
	for _, pc := range p.DivergePCs() {
		if p.DivergeAt(pc).Loop {
			loopMarks++
		}
	}
	if loopMarks == 0 {
		t.Fatal("gzip's program carries no loop mark; the test cannot tell a loop run apart")
	}
	want := p.Hash()
	var persisted []store.Meta
	for _, d := range st.Digests() {
		if m, ok := st.Meta(d); ok {
			persisted = append(persisted, m)
		}
	}
	if len(persisted) != 1 || !persisted[0].Config.EnableLoopDiverge || persisted[0].WorkloadHash != want {
		t.Fatalf("persisted %+v, want one loops entry under hash %s", persisted, want)
	}

	_, warm := serveOnce("loops-b")
	if warm.Counts.Simulated != 0 || warm.Counts.StoreHits != 1 {
		t.Fatalf("restarted run counts %+v, want 0 simulated and 1 store hit", warm.Counts)
	}
	if *warm.Stats != *cold.Stats {
		t.Error("store answer differs from the simulated one")
	}
}
