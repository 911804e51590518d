// Package serve implements the dmpserve daemon: simulation as a
// service over HTTP/JSON. A Server owns the admission controller
// (internal/sched.Admitter) and, when configured with a store, installs
// the persistent content-addressed store (internal/store) with
// exp.SetStore — every simulation any request triggers lands on disk,
// and any later request (or daemon restart) for the same (workload
// bytes, config, scale) key is a read, not a simulation. The same store
// keeps each program's diverge table, so a restarted daemon builds its
// programs without profiling.
//
// Endpoints:
//
//	POST /v1/runs             one benchmark under one machine config
//	POST /v1/experiments      paper tables/figures by experiment id
//	GET  /v1/runs/{id}        request status (and result when done)
//	GET  /v1/runs/{id}/events live telemetry feed for the run (SSE)
//	GET  /metrics             Prometheus text exposition
//	GET  /healthz, /readyz    liveness / readiness
//
// POST endpoints accept ?wait=1 to block until the result is ready
// (the CLI client uses this) and answer 429 with a Retry-After header
// when the admission queues are full. Clients are distinguished for
// queue fairness by the X-DMP-Client header, falling back to the
// remote address.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dmp/internal/core"
	"dmp/internal/exp"
	"dmp/internal/sched"
	"dmp/internal/store"
	"dmp/internal/telemetry"
	"dmp/internal/workload"
)

var (
	mRequests = telemetry.NewCounter("dmp_serve_requests_total",
		"HTTP simulation requests accepted (runs + experiments)")
	mFailed = telemetry.NewCounter("dmp_serve_requests_failed_total",
		"accepted requests that finished with an error")
	mSSEClients = telemetry.NewGauge("dmp_serve_sse_clients",
		"server-sent-event subscribers currently connected")
	mSSEDropped = telemetry.NewCounter("dmp_serve_sse_dropped_total",
		"telemetry events dropped on slow SSE subscribers")
)

// Config parameterizes a Server.
type Config struct {
	// Store, when non-nil, persists every computed result and diverge
	// table and serves warm-store hits without simulating or profiling.
	// New installs it with exp.SetStore for the Server's lifetime, and
	// Close removes it.
	Store *store.Store
	// Parallel bounds simulation workers, as exp.Options.Parallel
	// (default NumCPU; the first simulation fixes the process pool).
	Parallel int
	// Admit bounds concurrently executing and queued requests.
	Admit sched.AdmitOptions
	// Span, when non-nil, parents one async child span per accepted
	// request.
	Span *telemetry.Span
}

// Server is the dmpserve HTTP handler plus its request registry and
// admission controller. Create with New, serve with any http.Server,
// release with Close.
type Server struct {
	cfg Config
	adm *sched.Admitter
	hub *hub
	mux *http.ServeMux

	mu     sync.Mutex
	runs   map[string]*run
	nextID uint64
	closed bool
}

// New builds a Server and, when cfg.Store is set, installs it with
// exp.SetStore. The active telemetry feed (if any) is
// bridged to the SSE hub.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, adm: sched.NewAdmitter(cfg.Admit), hub: newHub(), runs: make(map[string]*run)}
	if cfg.Store != nil {
		exp.SetStore(cfg.Store)
	}
	telemetry.Active().Feed().Subscribe(s.hub.publish)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleRun)
	mux.HandleFunc("POST /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops admitting, drains requests already accepted, and
// uninstalls the store. Subsequent POSTs answer 429.
func (s *Server) Close() {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if wasClosed {
		return
	}
	s.adm.Stop()
	if s.cfg.Store != nil {
		exp.SetStore(nil)
	}
}

// --- request / response types ---

// RunRequest asks for one benchmark under one machine configuration.
type RunRequest struct {
	// Bench is a workload name (dmpsim -list).
	Bench string `json:"bench"`
	// Mode selects the machine: baseline (default), perfect, dmp, dhp,
	// dualpath, or enhanced — core.ModeConfig, as dmpsim -mode.
	Mode string `json:"mode,omitempty"`
	// CFMSource overrides the merge-point source (annotated, dynamic,
	// hybrid).
	CFMSource string `json:"cfm_source,omitempty"`
	// Scale is the workload scale factor (default 3).
	Scale int `json:"scale,omitempty"`
	// Loops turns on loop diverge (Section 2.7.4): the machine predicates
	// backward branches too, on the program with loop branches marked.
	// Baseline and perfect ignore it.
	Loops bool `json:"loops,omitempty"`
}

// ExperimentsRequest asks for paper tables/figures by experiment id
// ("all" expands to every id in paper order).
type ExperimentsRequest struct {
	IDs        []string `json:"ids"`
	Benchmarks []string `json:"benchmarks,omitempty"`
	Scale      int      `json:"scale,omitempty"`
}

// TableResult is one experiment's rendered table (or its error).
type TableResult struct {
	ID    string `json:"id"`
	Text  string `json:"text,omitempty"`
	Error string `json:"error,omitempty"`
}

// CacheDelta reports what one request cost the scheduler: Simulated
// counts simulations actually executed, StoreHits results loaded from
// the persistent store, Reused in-memory cache hits and misses that
// shared another request's simulation. Concurrent
// requests share one cache, so deltas attribute overlapping work to
// whichever request observed it complete.
type CacheDelta struct {
	Reused    uint64 `json:"reused"`
	StoreHits uint64 `json:"store_hits"`
	Simulated uint64 `json:"simulated"`
}

// RunStatus is the wire representation of one accepted request.
type RunStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`  // "run" | "experiments"
	State string `json:"state"` // queued | running | done | failed
	Error string `json:"error,omitempty"`
	// Stats is the simulation result for kind "run". Its wall-seconds
	// field reads 0: ElapsedSeconds is the request's host time. Only a
	// store object written before that rule may still carry a nonzero
	// value, until the store's ModelVersion retires it.
	Stats *core.Stats `json:"stats,omitempty"`
	// Tables holds the rendered tables for kind "experiments", in
	// requested order.
	Tables         []TableResult `json:"tables,omitempty"`
	Counts         *CacheDelta   `json:"counts,omitempty"`
	ElapsedSeconds float64       `json:"elapsed_seconds,omitempty"`
}

type errorBody struct {
	Error string `json:"error"`
}

// --- run registry ---

type run struct {
	mu   sync.Mutex
	st   RunStatus
	done chan struct{}
}

func (r *run) snapshot() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

func (r *run) update(mut func(*RunStatus)) {
	r.mu.Lock()
	mut(&r.st)
	r.mu.Unlock()
}

func (s *Server) newRun(kind string) *run {
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("r%06d", s.nextID)
	ru := &run{st: RunStatus{ID: id, Kind: kind, State: "queued"}, done: make(chan struct{})}
	s.runs[id] = ru
	s.mu.Unlock()
	return ru
}

func (s *Server) lookup(id string) *run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

func (s *Server) dropRun(id string) {
	s.mu.Lock()
	delete(s.runs, id)
	s.mu.Unlock()
}

// --- handlers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf(format, args...)})
}

// clientID distinguishes clients for queue fairness: an explicit
// X-DMP-Client header, else the connection's host.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-DMP-Client"); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// maxBodyBytes bounds a POST body. A valid request is a few hundred
// bytes; the bound keeps a broken or hostile client from making the
// daemon buffer without end.
const maxBodyBytes = 1 << 20

// decodeStrict decodes a request body of at most maxBodyBytes into v,
// rejecting unknown fields. On failure it has already answered: 413 for
// a body over the bound, 400 for any other bad body.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("request body over %d bytes", tooBig.Limit)})
	default:
		badRequest(w, "bad request body: %v", err)
	}
	return false
}

// maxScale bounds a request's workload scale at the largest scale the
// long-scale study runs. The training profile emulates the whole
// program before MaxCycles bounds anything, so without it one request
// could hold a worker for as long as it asks.
const maxScale = 200

// options returns the experiment options of a request at scale. A scale
// over maxScale is answered 400, and options reports false.
func (s *Server) options(w http.ResponseWriter, scale int) (exp.Options, bool) {
	if scale > maxScale {
		badRequest(w, "scale %d is over the bound of %d", scale, maxScale)
		return exp.Options{}, false
	}
	o := exp.DefaultOptions()
	o.Scale = scale
	o.Parallel = s.cfg.Parallel
	return o, true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeStrict(w, r, &req) {
		return
	}
	if req.Bench == "" {
		badRequest(w, "bench is required")
		return
	}
	if _, err := workload.ByName(req.Bench); err != nil {
		badRequest(w, "%v", err)
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = "baseline"
	}
	cfg, err := core.ModeConfig(mode)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	cfg.CFMSource = req.CFMSource
	cfg.EnableLoopDiverge = req.Loops
	if err := cfg.Validate(); err != nil {
		badRequest(w, "%v", err)
		return
	}
	o, ok := s.options(w, req.Scale)
	if !ok {
		return
	}
	s.submit(w, r, "run", func(sp *telemetry.Span) (*RunStatus, error) {
		ro := o
		ro.Span = sp
		st, err := exp.RunOne(req.Bench, cfg, ro)
		if err != nil {
			return nil, err
		}
		// Hand out a clone: the cached pointer is frozen and shared.
		return &RunStatus{Stats: st.Clone()}, nil
	})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var req ExperimentsRequest
	if !decodeStrict(w, r, &req) {
		return
	}
	ids, err := exp.Resolve(req.IDs)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	for _, b := range req.Benchmarks {
		if _, err := workload.ByName(b); err != nil {
			badRequest(w, "%v", err)
			return
		}
	}
	o, ok := s.options(w, req.Scale)
	if !ok {
		return
	}
	o.Benchmarks = req.Benchmarks
	s.submit(w, r, "experiments", func(sp *telemetry.Span) (*RunStatus, error) {
		o.Span = sp
		res := &RunStatus{}
		var failed []string
		RunExperiments(ids, o, func(id string, t *exp.Table, err error, _ time.Duration) {
			tr := TableResult{ID: id}
			if err != nil {
				tr.Error = err.Error()
				failed = append(failed, fmt.Sprintf("%s: %v", id, err))
			} else {
				tr.Text = t.String()
			}
			res.Tables = append(res.Tables, tr)
		})
		if len(failed) > 0 {
			return res, errors.New(strings.Join(failed, "; "))
		}
		return res, nil
	})
}

// submit runs the admission + registry + wait/async dance shared by the
// POST endpoints. fn returns the result fields to merge into the final
// status (Stats or Tables); its error marks the run failed.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind string, fn func(*telemetry.Span) (*RunStatus, error)) {
	ru := s.newRun(kind)
	id := ru.snapshot().ID
	err := s.adm.Submit(clientID(r), func() {
		s.execute(ru, fn)
	})
	if err != nil {
		s.dropRun(id)
		retry := int(math.Ceil(s.adm.RetryAfter().Seconds()))
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	}
	mRequests.Inc()
	if wait := r.URL.Query().Get("wait"); wait == "1" || wait == "true" {
		select {
		case <-ru.done:
			writeJSON(w, http.StatusOK, ru.snapshot())
		case <-r.Context().Done():
			// Client went away; the run finishes anyway and stays
			// queryable by id.
		}
		return
	}
	writeJSON(w, http.StatusAccepted, ru.snapshot())
}

// execute runs one admitted request: status transitions, the telemetry
// span and feed events, and the scheduler-counter delta the response
// reports.
func (s *Server) execute(ru *run, fn func(*telemetry.Span) (*RunStatus, error)) {
	id := ru.snapshot().ID
	sp := s.cfg.Span.ChildAsync(id, "serve")
	start := time.Now()
	before := exp.ResultCache().Counts()
	ru.update(func(st *RunStatus) { st.State = "running" })
	telemetry.Emit(telemetry.Event{Kind: "request", Name: id, Msg: "start"})
	res, err := fn(sp)
	after := exp.ResultCache().Counts()
	elapsed := time.Since(start).Seconds()
	sp.End()
	ru.update(func(st *RunStatus) {
		st.ElapsedSeconds = elapsed
		st.Counts = &CacheDelta{
			Reused:    after.Hits + after.Shared - before.Hits - before.Shared,
			StoreHits: after.StoreHits - before.StoreHits,
			Simulated: after.Computed - before.Computed,
		}
		if res != nil {
			st.Stats = res.Stats
			st.Tables = res.Tables
		}
		if err != nil {
			st.State = "failed"
			st.Error = err.Error()
		} else {
			st.State = "done"
		}
	})
	if err != nil {
		mFailed.Inc()
	}
	telemetry.Emit(telemetry.Event{Kind: "request", Name: id, Msg: "done", V: elapsed})
	close(ru.done)
}

// RunExperiments generates the experiments ids (resolved, see
// exp.Resolve) and hands each one's table, error and elapsed time to
// emit, in requested order, as soon as it and every id before it are
// done. Every experiment starts at once — the shared result cache and
// worker pool dedupe and bound their simulations — each on its own
// async "exp" span under o.Span with experiment start/done feed events,
// and a failing experiment never holds back the others. dmpexp's local
// path and POST /v1/experiments both run here, so a remote table is a
// local table by construction.
func RunExperiments(ids []string, o exp.Options, emit func(id string, t *exp.Table, err error, elapsed time.Duration)) {
	type result struct {
		table   *exp.Table
		err     error
		elapsed time.Duration
		done    chan struct{}
	}
	results := make([]result, len(ids))
	for i, id := range ids {
		r := &results[i]
		r.done = make(chan struct{})
		go func() {
			defer close(r.done)
			start := time.Now()
			eo := o
			eo.Span = o.Span.ChildAsync(id, "exp")
			telemetry.Emit(telemetry.Event{Kind: "experiment", Name: id, Msg: "start"})
			r.table, r.err = exp.All[id](eo)
			r.elapsed = time.Since(start)
			eo.Span.End()
			telemetry.Emit(telemetry.Event{Kind: "experiment", Name: id, Msg: "done", V: r.elapsed.Seconds()})
		}()
	}
	for i, id := range ids {
		r := &results[i]
		<-r.done
		emit(id, r.table, r.err, r.elapsed)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	ru := s.lookup(r.PathValue("id"))
	if ru == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown run id"})
		return
	}
	writeJSON(w, http.StatusOK, ru.snapshot())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.DefaultRegistry().Snapshot().WritePrometheus(w)
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "shutting down")
		return
	}
	fmt.Fprintln(w, "ready")
}
