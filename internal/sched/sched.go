// Package sched is the process-wide simulation scheduler: a bounded
// worker pool, a singleflight result cache with an optional persistent
// backing store, and admission control for many concurrent clients.
//
// It began life inside internal/exp (PR 2's result cache and global
// worker pool) and was extracted so the same machinery serves both the
// batch CLI (memory-only cache, one implicit client) and the dmpserve
// daemon (store-backed cache, fair queueing across remote clients).
// internal/exp remains the only place that knows how to *run* a
// simulation; this package only decides *whether* and *when* one runs.
//
// The three pieces compose independently:
//
//   - Pool: a fixed set of worker slots. Shared returns the
//     process-global pool; the first caller fixes its capacity, so a
//     process-level -parallel cap holds across every concurrently
//     generated experiment instead of being oversubscribed per suite.
//   - Cache: requests keyed by Key dedupe to one execution
//     (singleflight); completed results are shared frozen *core.Stats.
//     A Backing store, when installed, is consulted before computing
//     and written through after, which is what makes results survive
//     the process (internal/store implements it over a directory).
//   - Admitter: bounded per-client FIFO queues drained round-robin by
//     a fixed number of request slots. Overflow is refused immediately
//     (ErrOverloaded -> HTTP 429) with a Retry-After estimate derived
//     from observed request durations.
//
// Everything here is host-side machinery: nothing reads or writes
// simulator state, so attached telemetry and the backing store can
// never perturb experiment tables (the byte-identical golden contract).
package sched

import (
	"runtime"
	"sync"
)

// Pool is a bounded set of worker slots. Acquire blocks until a slot is
// free. The zero value is unusable — construct with NewPool or Shared.
type Pool struct {
	ch chan struct{}
}

// NewPool returns a pool with n slots (n <= 0 means NumCPU).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return &Pool{ch: make(chan struct{}, n)}
}

// Acquire blocks until a worker slot is free and takes it.
func (p *Pool) Acquire() {
	mPoolQueued.Add(1)
	p.ch <- struct{}{}
	mPoolQueued.Add(-1)
	mPoolBusy.Add(1)
}

// Release returns a slot taken by Acquire.
func (p *Pool) Release() {
	mPoolBusy.Add(-1)
	<-p.ch
}

// Cap returns the pool's slot count.
func (p *Pool) Cap() int { return cap(p.ch) }

// Chan exposes the underlying slot semaphore as a plain channel for
// sample.Options.Slots: a sampled run's intervals take a free slot with
// a non-blocking send and hand it back with a receive. Sends take a
// slot, receives release one. Those raw takes bypass the pool gauges,
// so a busy pool can read up to one slot per running interval low;
// every slot taken with Acquire is counted.
func (p *Pool) Chan() chan struct{} { return p.ch }

// --- process-global pool ---

var (
	sharedMu sync.Mutex
	shared   *Pool
)

// Shared returns the process-wide worker pool, creating it on first use
// with capacity n (<= 0 means NumCPU). The first caller fixes the
// capacity for the life of the process: the parallelism cap is global,
// not per-suite, precisely so that concurrently generated experiments
// cannot oversubscribe the host.
func Shared(n int) *Pool {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if shared == nil {
		shared = NewPool(n)
	}
	return shared
}
