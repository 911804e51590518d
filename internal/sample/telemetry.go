package sample

import "dmp/internal/telemetry"

// Host-side telemetry for the sampled-run driver. The stage histograms
// are the one record of where a sampled run's host time goes: Run
// observes each stage once per successful run (detailed summed across
// interval workers, warm including the untrained tail), and dmpsim's
// time-breakdown line and dmpbench read them back. The live-snapshots
// gauge tracks checkpoint memory: it rises when the warming pass
// captures a checkpoint and falls when its interval releases it, so its
// peak is the snapshot working set: one per interval running on a worker
// slot, plus one per run whose warming goroutine runs an interval inline.
// Everything here is host-side only — no simulator state, no effect on
// Stats or the Result.
var (
	mStagePrefix = telemetry.NewHistogram("dmp_sample_prefix_seconds",
		"exactly simulated cold-start prefix, per sampled run", telemetry.SecondsBuckets())
	mStageWarm = telemetry.NewHistogram("dmp_sample_warm_seconds",
		"continuous functional warming pass, per sampled run", telemetry.SecondsBuckets())
	mStageSnapshot = telemetry.NewHistogram("dmp_sample_snapshot_seconds",
		"checkpoint capture (architectural + copy-on-write warm state), per sampled run",
		telemetry.SecondsBuckets())
	mStageDetailed = telemetry.NewHistogram("dmp_sample_detailed_seconds",
		"detailed interval simulation, summed across workers, per sampled run",
		telemetry.SecondsBuckets())
	mStageExtrapolate = telemetry.NewHistogram("dmp_sample_extrapolate_seconds",
		"aggregation and extrapolation, per sampled run", telemetry.SecondsBuckets())
	mLiveSnapshots = telemetry.NewGauge("dmp_sample_live_snapshots",
		"captured checkpoints whose snapshot memory is not yet released")
	mIntervals = telemetry.NewCounter("dmp_sample_intervals_total",
		"detailed intervals simulated")
)
