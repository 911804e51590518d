package serve

import (
	"dmp/internal/core"
	"dmp/internal/exp"
	"dmp/internal/sched"
	"dmp/internal/store"
)

// storeBacking adapts the content-addressed on-disk store to the
// scheduler's Backing interface. The translation from a sched.Key to a
// store.Meta adds the one fact the scheduler does not track: the
// workload hash, a digest of the exact annotated program bytes the
// result was measured on (exp.WorkloadHash, memoized with the program
// itself). Folding it into the persistent key means a store survives
// workload-generator changes safely — results for the old program bytes
// simply stop being addressed, instead of being served against the new
// ones.
type storeBacking struct {
	st *store.Store
}

func (b storeBacking) metaFor(k sched.Key) (store.Meta, bool) {
	h, err := exp.WorkloadHash(k.Bench, k.Scale, k.Cfg)
	if err != nil {
		// No workload identity, no persistent key: the scheduler will
		// compute (and fail with the real error) instead.
		return store.Meta{}, false
	}
	// Every simulation the scheduler runs is checked, so Check is always
	// true, which keeps the digests of stores written when it was a knob.
	return store.Meta{Bench: k.Bench, Scale: k.Scale, Check: true, Config: k.Cfg, WorkloadHash: h}, true
}

func (b storeBacking) Load(k sched.Key) (*core.Stats, bool) {
	m, ok := b.metaFor(k)
	if !ok {
		return nil, false
	}
	return b.st.Load(m)
}

func (b storeBacking) Store(k sched.Key, st *core.Stats) {
	m, ok := b.metaFor(k)
	if !ok {
		return
	}
	// A failed write degrades to an unpersisted (but still correct)
	// result; the in-memory entry serves this process either way.
	b.st.Put(m, st)
}
