package sched

import (
	"runtime"
	"testing"

	"dmp/internal/core"
	"dmp/internal/telemetry"
)

// BenchmarkCacheHit measures the in-memory hit path — the cost every
// deduplicated request pays: one sync.Map load, the frozen-snapshot
// integrity compare, and the counter/metric updates.
func BenchmarkCacheHit(b *testing.B) {
	c := NewCache()
	key := Key{Bench: "mcf", Scale: 1, Cfg: core.EnhancedDMPConfig().Canonical()}
	st := &core.Stats{RetiredInsts: 1, Cycles: 2}
	pool := NewPool(1)
	if _, err := c.Do(key, Job{Pool: pool, Run: func(*telemetry.Span, func(core.Evidence)) (Result, core.Evidence, error) {
		return Result{Stats: st}, core.Evidence{}, nil
	}}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Do(key, Job{Pool: pool, Run: func(*telemetry.Span, func(core.Evidence)) (Result, core.Evidence, error) {
			b.Fatal("hit path ran the job")
			return Result{}, core.Evidence{}, nil
		}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmitterShed measures the rejection path under a full
// queue — the cost of telling one more client to retry later while the
// daemon is saturated.
func BenchmarkAdmitterShed(b *testing.B) {
	a := NewAdmitter(AdmitOptions{MaxConcurrent: 1, MaxQueuedPerClient: 1, MaxQueuedTotal: 1})
	block := make(chan struct{})
	if err := a.Submit("bench", func() { <-block }); err != nil {
		b.Fatal(err)
	}
	// Fill the queue: wait for the blocker to occupy the slot, then
	// queue until submission sheds — one running, one queued, everything
	// after rejected.
	for a.Running() == 0 {
		runtime.Gosched()
	}
	for a.Submit("bench", func() {}) == nil {
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Submit("bench", func() {}); err == nil {
			b.Fatal("expected shed")
		}
	}
	b.StopTimer()
	close(block)
	a.Stop()
}
