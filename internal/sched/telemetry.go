package sched

import "dmp/internal/telemetry"

// Host-side telemetry for the scheduler: result cache, backing store
// traffic, worker pool and admission control. The metrics are always-on
// atomics (an add is cheaper than a branch-and-load, and Cache.Do runs
// per simulation request, not per simulated cycle); spans and feed
// events, which allocate and write, are emitted only when a
// telemetry.Set is active. Nothing here reads or writes simulator
// state, which is what keeps the golden tables byte-identical with
// telemetry attached (the no-perturbation contract, pinned by
// TestTelemetryDoesNotPerturb).
var (
	mCacheHits = telemetry.NewCounter("dmp_sched_cache_hits_total",
		"result-cache requests served from a completed or in-flight simulation")
	mCacheMisses = telemetry.NewCounter("dmp_sched_cache_misses_total",
		"result-cache requests that found no in-memory entry")
	mStoreHits = telemetry.NewCounter("dmp_sched_store_hits_total",
		"cache misses served from the persistent backing store")
	mStoreMisses = telemetry.NewCounter("dmp_sched_store_misses_total",
		"cache misses the backing store also missed (a simulation ran or was shared)")
	mShared = telemetry.NewCounter("dmp_sched_shared_total",
		"cache misses answered by another request's simulation of the same machine")
	mSingleflightWait = telemetry.NewHistogram("dmp_sched_singleflight_wait_seconds",
		"time a cache hit spent blocked on another request's in-flight simulation",
		telemetry.SecondsBuckets())
	mSlotWait = telemetry.NewHistogram("dmp_sched_slot_wait_seconds",
		"time a simulation spent queued for a global worker-pool slot",
		telemetry.SecondsBuckets())
	mSimSeconds = telemetry.NewHistogram("dmp_sched_simulation_seconds",
		"wall time of each uncached simulation, slot acquisition included",
		telemetry.SecondsBuckets())
	mPoolQueued = telemetry.NewGauge("dmp_sched_pool_queued",
		"simulations currently waiting for a worker-pool slot")
	mPoolBusy = telemetry.NewGauge("dmp_sched_pool_busy",
		"worker-pool slots currently held via Acquire")

	mAdmitted = telemetry.NewCounter("dmp_sched_admitted_total",
		"requests accepted into the admission queue")
	mShed = telemetry.NewCounter("dmp_sched_shed_total",
		"requests refused at admission (overload or shutdown)")
	mQueueDepth = telemetry.NewGauge("dmp_sched_queue_depth",
		"requests waiting in the admission queue")
	mRunning = telemetry.NewGauge("dmp_sched_requests_running",
		"admitted requests currently dispatched")
)
