// Command dmpserve is the simulation-as-a-service daemon: a
// long-running HTTP/JSON server that runs simulations and experiments
// on demand, deduplicates identical in-flight requests through the
// process-wide result cache (internal/sched), and persists every
// computed result in a content-addressed on-disk store (internal/store)
// so that repeated requests — and future daemon processes over the same
// store directory — answer without simulating. The store also keeps
// each program's diverge table from the training profile, so a later
// daemon process builds its programs without profiling them again.
//
// Usage:
//
//	dmpserve -store /var/lib/dmp -listen :8080
//
// then, from a client:
//
//	dmpexp -remote http://localhost:8080 -scale 1 all
//	curl -s localhost:8080/v1/runs -d '{"bench":"mcf","mode":"enhanced"}'
//	curl -s localhost:8080/metrics
//
// POST /v1/runs and /v1/experiments accept ?wait=1 to block until the
// result is ready; otherwise they answer 202 with a run id to poll at
// GET /v1/runs/{id} or stream at GET /v1/runs/{id}/events (server-sent
// events off the host telemetry feed). When the admission queues are
// full the daemon sheds load with 429 and a Retry-After header.
//
// -telemetry-out DIR records the host telemetry artifacts (spans.json,
// events.jsonl, metrics.json/.prom) on shutdown, in the same format
// dmpexp -telemetry-out writes and dmpobs -telemetry validates. Without
// it the daemon still runs an in-memory telemetry set: the progress
// feed drives the SSE endpoint and the metrics registry drives
// /metrics.
//
// SIGINT/SIGTERM shut down gracefully: stop admitting (new POSTs get
// 429), drain accepted requests, flush telemetry, exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmp/internal/sched"
	"dmp/internal/serve"
	"dmp/internal/store"
	"dmp/internal/telemetry"
)

// Connection timeouts. A client that never finishes its headers, or
// holds an idle keep-alive connection open, is cut off rather than
// pinning a connection for ever. There is no read or write timeout on
// the whole exchange: a ?wait=1 request legitimately waits for as long
// as its simulations run.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		listen   = flag.String("listen", ":8080", "address to serve HTTP on")
		storeDir = flag.String("store", "", "persistent result store directory (empty = in-memory only)")
		par      = flag.Int("parallel", 0, "simulation worker cap (default NumCPU)")
		maxReq   = flag.Int("max-requests", 0, "requests executing concurrently (default 2)")
		queuePC  = flag.Int("queue-per-client", 0, "queued requests allowed per client before shedding (default 8)")
		queueTot = flag.Int("queue-total", 0, "queued requests allowed in total before shedding (default 64)")
	)
	// The daemon always runs with an attached telemetry set: the feed is
	// what the SSE endpoint streams and EmitMetrics checkpoints come for
	// free with it. -telemetry-out additionally persists the artifacts.
	obsFlags := telemetry.Flags{On: true}
	flag.StringVar(&obsFlags.Out, "telemetry-out", "", "record telemetry artifacts (spans.json, events.jsonl, metrics.json/.prom) in this directory on shutdown")
	flag.Parse()

	var run *telemetry.Run // Finish is nil-safe, so fail works before Start
	finish := func() {
		if err := run.Finish(); err != nil {
			fmt.Fprintf(os.Stderr, "dmpserve: %v\n", err)
		}
	}
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dmpserve: "+format+"\n", args...)
		finish()
		os.Exit(1)
	}
	run, err := obsFlags.Start("dmpserve", "serve", "listen "+*listen)
	if err != nil {
		fail("%v", err)
	}

	cfg := serve.Config{
		Parallel: *par,
		Admit: sched.AdmitOptions{
			MaxConcurrent:      *maxReq,
			MaxQueuedPerClient: *queuePC,
			MaxQueuedTotal:     *queueTot,
		},
		Span: run.Root,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fail("store: %v", err)
		}
		cfg.Store = st
		fmt.Fprintf(os.Stderr, "dmpserve: store %s (%d results)\n", st.Dir(), st.Len())
	}
	srv := serve.New(cfg)

	httpSrv := &http.Server{
		Addr:              *listen,
		Handler:           srv,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "dmpserve: listening on %s\n", *listen)
		errCh <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "dmpserve: shutting down")
	case err := <-errCh:
		fail("%v", err)
	}

	// Graceful drain: refuse new requests, let in-flight HTTP exchanges
	// (including waiting clients) finish, then release the admitter.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "dmpserve: shutdown: %v\n", err)
	}
	srv.Close()

	finish()
}
