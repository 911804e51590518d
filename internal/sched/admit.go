package sched

import (
	"errors"
	"sync"
	"time"
)

// ErrOverloaded is returned by Admitter.Submit when the request cannot
// be queued: the client's queue or the total queue is full, or the
// admitter has been stopped. The daemon maps it to HTTP 429 with a
// Retry-After header from Admitter.RetryAfter.
var ErrOverloaded = errors.New("sched: overloaded, retry later")

// AdmitOptions bounds the Admitter. Zero values take the defaults.
type AdmitOptions struct {
	// MaxConcurrent is the number of requests dispatched at once
	// (default 2). Each request typically fans out internally onto the
	// worker pool, so this bounds requests, not simulations.
	MaxConcurrent int
	// MaxQueuedPerClient bounds one client's waiting requests (default
	// 8): one greedy client fills its own queue, not the daemon's.
	MaxQueuedPerClient int
	// MaxQueuedTotal bounds waiting requests across all clients
	// (default 64).
	MaxQueuedTotal int
}

func (o AdmitOptions) withDefaults() AdmitOptions {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 2
	}
	if o.MaxQueuedPerClient <= 0 {
		o.MaxQueuedPerClient = 8
	}
	if o.MaxQueuedTotal <= 0 {
		o.MaxQueuedTotal = 64
	}
	return o
}

// Admitter is the daemon's admission controller: bounded per-client
// FIFO queues drained round-robin by MaxConcurrent request slots.
// Fairness is strict alternation — after a client's request dispatches,
// the client goes to the back of the ring — so a client submitting 100
// requests cannot starve one submitting 2. Overflow is refused at
// Submit time rather than queued indefinitely.
type Admitter struct {
	opts AdmitOptions

	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string][]func()
	ring    []string // clients with queued work, round-robin order
	queued  int
	running int
	stopped bool
	// ewmaSecs tracks recent request durations (exponentially weighted)
	// for the Retry-After estimate. Host wall-clock only.
	ewmaSecs float64

	jobs sync.WaitGroup
	loop sync.WaitGroup
}

// NewAdmitter starts an admitter and its dispatcher goroutine. Stop it
// with Stop.
func NewAdmitter(o AdmitOptions) *Admitter {
	a := &Admitter{opts: o.withDefaults(), queues: map[string][]func(){}}
	a.cond = sync.NewCond(&a.mu)
	a.loop.Add(1)
	go a.dispatch()
	return a
}

// Submit enqueues job for client, returning ErrOverloaded if the
// client's queue or the total queue is full (or the admitter is
// stopped). A nil error means the job will run exactly once.
func (a *Admitter) Submit(client string, job func()) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stopped || a.queued >= a.opts.MaxQueuedTotal || len(a.queues[client]) >= a.opts.MaxQueuedPerClient {
		mShed.Inc()
		return ErrOverloaded
	}
	if len(a.queues[client]) == 0 {
		a.ring = append(a.ring, client)
	}
	a.queues[client] = append(a.queues[client], job)
	a.queued++
	mQueueDepth.Set(int64(a.queued))
	mAdmitted.Inc()
	a.jobs.Add(1)
	a.cond.Signal()
	return nil
}

// dispatch pops one request at a time, round-robin across clients, and
// runs it on its own goroutine while respecting MaxConcurrent.
func (a *Admitter) dispatch() {
	defer a.loop.Done()
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		for {
			if a.stopped && a.queued == 0 {
				return
			}
			if a.queued > 0 && a.running < a.opts.MaxConcurrent {
				break
			}
			a.cond.Wait()
		}
		client := a.ring[0]
		q := a.queues[client]
		job := q[0]
		if len(q) == 1 {
			delete(a.queues, client)
			a.ring = a.ring[1:]
		} else {
			a.queues[client] = q[1:]
			// Back of the ring: strict alternation across clients.
			a.ring = append(a.ring[1:], client)
		}
		a.queued--
		a.running++
		mQueueDepth.Set(int64(a.queued))
		mRunning.Set(int64(a.running))
		go a.run(job)
	}
}

func (a *Admitter) run(job func()) {
	t0 := time.Now() //dmp:allow nondeterminism -- admission pacing (Retry-After) only; never reaches Stats
	defer func() {
		secs := time.Since(t0).Seconds() //dmp:allow nondeterminism -- admission pacing only
		a.mu.Lock()
		a.running--
		mRunning.Set(int64(a.running))
		if a.ewmaSecs == 0 {
			a.ewmaSecs = secs
		} else {
			a.ewmaSecs = 0.8*a.ewmaSecs + 0.2*secs
		}
		a.mu.Unlock()
		a.cond.Signal()
		a.jobs.Done()
	}()
	job()
}

// RetryAfter estimates when a refused client should try again: the
// current backlog (queued + running) paced at the observed per-request
// duration across MaxConcurrent slots, floored at one second.
func (a *Admitter) RetryAfter() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	avg := a.ewmaSecs
	if avg <= 0 {
		avg = 1
	}
	secs := avg * float64(a.queued+a.running) / float64(a.opts.MaxConcurrent)
	if secs < 1 {
		secs = 1
	}
	return time.Duration(secs * float64(time.Second))
}

// Running returns the number of dispatched, unfinished requests.
func (a *Admitter) Running() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.running
}

// Stop refuses new submissions, drains the queue (already-admitted
// requests still run — Submit promised them), and waits for every
// dispatched job to finish. Idempotent.
func (a *Admitter) Stop() {
	a.mu.Lock()
	a.stopped = true
	a.mu.Unlock()
	a.cond.Broadcast()
	a.loop.Wait()
	a.jobs.Wait()
}
