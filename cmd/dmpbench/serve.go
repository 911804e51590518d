package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmp/internal/core"
	"dmp/internal/exp"
	"dmp/internal/sched"
	"dmp/internal/serve"
	"dmp/internal/store"
	"dmp/internal/telemetry"
	"dmp/internal/workload"
)

// Generated workloads are kept to programs of
// [genMinInsts, genMaxInsts] instructions per unit of scale, the band
// the hand-built suite sits in, so a seed changes which programs a round
// runs but not how much work they are.
const (
	genMinInsts = 13_000
	genMaxInsts = 22_000
)

// serveJob drives dmpserve the way a client fleet sees a deploy: a cold
// daemon over an empty store (every request simulates and writes), the
// same daemon restarted over that store (every request is a store read
// after a cold program build), then hot (every request an in-memory
// hit). The daemon is an in-process serve.Server behind httptest; nproc
// closed-loop clients send POST /v1/runs?wait=1. The seed picks the
// generated workloads and shuffles the request order.
type serveJob struct {
	seed    uint64
	scale   int
	benches []string // the hand-built benchmarks requested
	nGen    int      // generated workloads requested
	hot     int      // hot-phase requests per round

	base string // temporary directory the rounds' stores live under
	reqs []serve.RunRequest
}

func newServeJob(seed uint64, smoke bool) job {
	j := &serveJob{seed: seed, scale: 3, benches: workload.Names(), nGen: 30, hot: 6000}
	if smoke {
		j.scale, j.benches, j.nGen, j.hot = 1, j.benches[:2], 2, 100
	}
	return j
}

// setup picks the generated workloads and builds the request list. The
// daemons start inside each round, because a restart is what the
// workload measures.
func (j *serveJob) setup(sp *telemetry.Span) error {
	s := sp.Child("workload.gen", "bench")
	gens, err := genBenches(j.seed, j.nGen, j.scale)
	s.End()
	if err != nil {
		return err
	}
	var reqs []serve.RunRequest
	for _, b := range j.benches {
		reqs = append(reqs, serve.RunRequest{Bench: b, Mode: "baseline", Scale: j.scale},
			serve.RunRequest{Bench: b, Mode: "enhanced", Scale: j.scale})
	}
	for i, g := range gens {
		mode := "baseline"
		if i%2 == 1 {
			mode = "enhanced"
		}
		reqs = append(reqs, serve.RunRequest{Bench: g, Mode: mode, Scale: j.scale})
	}
	j.reqs = permute(reqs, j.seed)
	if j.base == "" {
		if j.base, err = os.MkdirTemp("", "dmpbench-serve-"); err != nil {
			return err
		}
	}
	return nil
}

// Close removes the stores.
func (j *serveJob) Close() error {
	if j.base == "" {
		return nil
	}
	return os.RemoveAll(j.base)
}

func (j *serveJob) round(rc *roundCtx) error {
	dir, err := os.MkdirTemp(j.base, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	n := len(j.reqs)

	// Cold: empty store, cold caches; every request simulates.
	sp := rc.span.Child("phase.cold", "bench")
	exp.Reset()
	d, err := startDaemon(dir, sp)
	if err != nil {
		return err
	}
	cold := make([]*core.Stats, n)
	g0 := readRegistry()
	d.send(rc, sp, j.reqs, n, false, func(i int, st *serve.RunStatus) error {
		cold[i] = st.Stats
		rc.simulated(st.Stats.RetiredInsts)
		return nil
	})
	g1 := readRegistry()
	d.stop()
	sp.End()
	computed := computedBetween(g0, g1)
	rc.count("sched.cold.computed", computed)
	if computed != float64(n) {
		rc.fail(fmt.Errorf("cold phase ran %v simulations for %d distinct requests", computed, n))
	}

	// Restart: a new daemon over the same store, program cache cold.
	sp = rc.span.Child("phase.restart", "bench")
	exp.Reset()
	if d, err = startDaemon(dir, sp); err != nil {
		return err
	}
	defer d.stop()
	g0 = readRegistry()
	d.send(rc, sp, j.reqs, n, true, func(i int, st *serve.RunStatus) error {
		return checkRestart(j.reqs[i], cold[i], st)
	})
	g1 = readRegistry()
	sp.End()
	computed = computedBetween(g0, g1)
	rc.count("sched.restart.store_hits", g1[regStoreHits]-g0[regStoreHits])
	rc.count("sched.restart.computed", computed)
	if computed != 0 {
		rc.fail(fmt.Errorf("restart phase ran %v simulations; the store should have answered all %d requests", computed, n))
	}

	// Hot: the restarted daemon again; every request is a memory hit.
	sp = rc.span.Child("phase.hot", "bench")
	g0 = readRegistry()
	d.send(rc, sp, j.reqs, j.hot, false, func(i int, st *serve.RunStatus) error {
		return checkRestart(j.reqs[i], cold[i], st)
	})
	g1 = readRegistry()
	sp.End()
	hits := g1[regHits] - g0[regHits]
	rc.count("sched.hot.hits", hits)
	if hits != float64(j.hot) || computedBetween(g0, g1) != 0 {
		rc.fail(fmt.Errorf("hot phase: %v memory hits for %d requests", hits, j.hot))
	}
	return nil
}

func (j *serveJob) probeSet() probeSet {
	gens := make([]string, 0, j.nGen)
	for _, r := range j.reqs {
		if strings.HasPrefix(r.Bench, workload.GenPrefix) {
			gens = append(gens, r.Bench)
		}
	}
	return probeSet{scale: j.scale, benches: append(append([]string(nil), j.benches...), gens...)}
}

// computedBetween is the number of simulations run between two registry
// readings: cache misses the store did not answer.
func computedBetween(before, after reading) float64 {
	return (after[regMisses] - before[regMisses]) - (after[regStoreHits] - before[regStoreHits])
}

// checkRestart checks an answer after the restart: the same simulated
// Stats the cold daemon computed for the request.
func checkRestart(req serve.RunRequest, cold *core.Stats, got *serve.RunStatus) error {
	if cold == nil {
		return fmt.Errorf("%s/%s: no cold answer to compare with", req.Bench, req.Mode)
	}
	if *got.Stats != *cold {
		return fmt.Errorf("%s/%s: Stats differ from the cold daemon's", req.Bench, req.Mode)
	}
	return nil
}

// daemon is one dmpserve instance over a store directory.
type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startDaemon(dir string, sp *telemetry.Span) (*daemon, error) {
	s := sp.Child("store.Open", "store")
	st, err := store.Open(dir)
	s.End()
	if err != nil {
		return nil, err
	}
	s = sp.Child("serve.New", "serve")
	srv := serve.New(serve.Config{Store: st, Parallel: nproc, Admit: sched.AdmitOptions{MaxConcurrent: nproc}})
	ts := httptest.NewServer(srv)
	s.End()
	return &daemon{srv: srv, ts: ts}, nil
}

// stop shuts the HTTP server and then the daemon, which uninstalls the
// store from exp's result cache.
func (d *daemon) stop() {
	d.ts.Close()
	d.srv.Close()
}

// send issues n requests, cycling through reqs, from nproc closed-loop
// clients, and checks each answer with check (given the index into
// reqs). timed requests are the workload's timed operations.
func (d *daemon) send(rc *roundCtx, sp *telemetry.Span, reqs []serve.RunRequest, n int, timed bool, check func(int, *serve.RunStatus) error) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := fmt.Sprintf("client-%d", c)
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				i := k % len(reqs)
				s := sp.ChildAsync("serve.run", "serve")
				t0 := time.Now()
				st, err := d.post(client, reqs[i])
				dur := time.Since(t0)
				s.End()
				if err == nil {
					err = check(i, st)
				} else {
					err = fmt.Errorf("%s/%s: %w", reqs[i].Bench, reqs[i].Mode, err)
				}
				if timed {
					rc.op(dur, err)
				} else {
					rc.call(err)
				}
			}
		}()
	}
	wg.Wait()
}

// post sends one POST /v1/runs?wait=1 and returns the finished run.
func (d *daemon) post(client string, req serve.RunRequest) (*serve.RunStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequest(http.MethodPost, d.ts.URL+"/v1/runs?wait=1", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-DMP-Client", client)
	resp, err := d.ts.Client().Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return decodeRun(resp.StatusCode, resp.Body)
}

// decodeRun accepts only a 200 carrying a finished run with its Stats.
func decodeRun(code int, body io.Reader) (*serve.RunStatus, error) {
	data, err := io.ReadAll(body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(data))
	}
	var st serve.RunStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("decode run status: %w", err)
	}
	if st.State != "done" || st.Stats == nil {
		return nil, fmt.Errorf("run %s ended %q: %s", st.ID, st.State, st.Error)
	}
	return &st, nil
}

// genCandidates is how many generated workloads genBenches examines per
// one it needs. It always examines them all, so set-up does the same
// work for every seed; about half fall in the instruction band.
const genCandidates = 5

// genBenches picks n generated workloads ("gen:SEED") from the seed: the
// first n of n*genCandidates candidates whose reference program at scale
// runs inside the instruction band.
func genBenches(seed uint64, n, scale int) ([]string, error) {
	r := rng{seed ^ 0x67656e65726174}
	var out []string
	for i := 0; i < n*genCandidates; i++ {
		name := fmt.Sprintf("%s%d", workload.GenPrefix, r.next())
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		insts, err := archInsts(w.Build(workload.BuildConfig{Seed: workload.RefSeed, Scale: scale}))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if per := insts / uint64(scale); per >= genMinInsts && per <= genMaxInsts && len(out) < n {
			out = append(out, name)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("only %d of %d generated workloads fell in the instruction band", len(out), n)
	}
	return out, nil
}
