package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"dmp/internal/bpred"
	"dmp/internal/cache"
	"dmp/internal/core"
	"dmp/internal/emu"
	"dmp/internal/exp"
	"dmp/internal/isa"
	"dmp/internal/store"
	"dmp/internal/telemetry"
	"dmp/internal/workload"
)

// The layer probes time each package beneath the simulator on its own,
// over the workload's programs, after the traced run's rounds. Each
// program contributes at most these many instructions to a probe, which
// bounds a probe's cost on the long workloads; on the short ones whole
// programs run.
const (
	probeEmuInsts    = 1 << 20
	probeStreamInsts = 100_000
	probeCoreInsts   = 50_000
	probeWarmInsts   = 200_000
	probeWarmChunk   = 10_000 // instructions between warm-state snapshots
)

// probeSet is what the probes run on.
type probeSet struct {
	scale int
	// benches are the programs profile.annotate_s builds cold; loops adds
	// the loop-marked variant of each, as the paper-suite uses.
	benches []string
	loops   bool
	// progs are the programs the other probes run; nil means the
	// hand-built benches among benches, as exp.Annotated builds them.
	progs []benchProg
}

// annotateAll builds, through exp's program cache, the annotated program
// of every bench at scale, and the loop-marked variant too when loops.
func annotateAll(benches []string, scale int, loops bool, sp *telemetry.Span) error {
	for _, b := range benches {
		s := sp.Child("exp.Annotated", "exp")
		_, err := exp.Annotated(b, scale)
		if err == nil && loops {
			_, err = exp.AnnotatedLoops(b, scale)
		}
		s.End()
		if err != nil {
			return fmt.Errorf("%s: %w", b, err)
		}
	}
	return nil
}

// probeLayers runs every probe and returns the per-layer metrics they
// give, by name.
func probeLayers(ps probeSet, sp *telemetry.Span) (map[string]float64, error) {
	vals := map[string]float64{}
	exp.Reset()
	t0 := time.Now()
	if err := annotateAll(ps.benches, ps.scale, ps.loops, sp); err != nil {
		return nil, err
	}
	vals["profile.annotate_s"] = time.Since(t0).Seconds()

	progs := ps.progs
	if progs == nil {
		for _, b := range ps.benches {
			if strings.HasPrefix(b, workload.GenPrefix) {
				continue
			}
			p, err := exp.Annotated(b, ps.scale)
			if err != nil {
				return nil, err
			}
			progs = append(progs, benchProg{b, p})
		}
	}
	results, err := probeCore(progs, ps.scale, sp, vals)
	if err != nil {
		return nil, err
	}
	if err := probeWarm(progs, sp, vals); err != nil {
		return nil, err
	}
	if err := probeEmu(progs, sp, vals); err != nil {
		return nil, err
	}
	if err := probeStreams(progs, sp, vals); err != nil {
		return nil, err
	}
	if err := probeStore(results, sp, vals); err != nil {
		return nil, err
	}
	return vals, nil
}

// storedResult is one core probe result, as the store probe writes it.
type storedResult struct {
	meta store.Meta
	st   *core.Stats
}

// probeCore runs each program under the baseline and the enhanced DMP
// machine, exact and checked, for at most probeCoreInsts retired
// instructions: host time per fetched uop for each machine, per
// simulated cycle, and per core.New, plus the simulated counts.
func probeCore(progs []benchProg, scale int, sp *telemetry.Span, vals map[string]float64) ([]storedResult, error) {
	var results []storedResult
	var news []float64
	var cycleNS, uops, cycles, retired float64
	for _, mode := range []struct {
		name string
		cfg  core.Config
	}{{"baseline", core.DefaultConfig()}, {"enhanced", core.EnhancedDMPConfig()}} {
		var runNS, modeUops float64
		for _, bp := range progs {
			cfg := mode.cfg
			cfg.CheckRetirement = true
			cfg.MaxInsts = probeCoreInsts
			s := sp.Child("core.New", "core")
			t0 := time.Now()
			m, err := core.New(bp.p, cfg)
			news = append(news, time.Since(t0).Seconds())
			s.End()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", bp.bench, err)
			}
			s = sp.Child("core.Run", "core")
			t0 = time.Now()
			st, err := m.Run()
			ns := float64(time.Since(t0).Nanoseconds())
			s.End()
			if err != nil {
				return nil, fmt.Errorf("%s under %v: %w", bp.bench, cfg.Mode, err)
			}
			runNS += ns
			modeUops += float64(st.FetchedUops)
			cycles += float64(st.Cycles)
			retired += float64(st.RetiredInsts)
			results = append(results, storedResult{
				meta: store.Meta{Bench: bp.bench, Scale: scale, Check: true, Config: cfg.Canonical(), WorkloadHash: bp.p.Hash()},
				st:   st.Clone(),
			})
		}
		vals["core."+mode.name+".ns_per_uop"] = runNS / modeUops
		cycleNS += runNS
		uops += modeUops
	}
	vals["core.new_ms"] = median(news) * 1e3
	vals["core.ns_per_cycle"] = cycleNS / cycles
	vals["core.uops"] = uops
	vals["core.cycles"] = cycles
	vals["core.retired"] = retired
	return results, nil
}

// probeWarm runs the functional warmer sampled simulation uses over each
// program, snapshotting its copy-on-write warm state every
// probeWarmChunk instructions.
func probeWarm(progs []benchProg, sp *telemetry.Span, vals map[string]float64) error {
	cfg := core.EnhancedDMPConfig()
	var warmNS, insts float64
	var snaps []float64
	for _, bp := range progs {
		w, err := core.NewWarmer(bp.p, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", bp.bench, err)
		}
		for !w.Halted() && w.Count() < probeWarmInsts {
			from := w.Count()
			s := sp.Child("core.WarmTo", "core")
			t0 := time.Now()
			err := w.WarmTo(from + probeWarmChunk)
			warmNS += float64(time.Since(t0).Nanoseconds())
			s.End()
			if err != nil {
				return fmt.Errorf("%s: %w", bp.bench, err)
			}
			insts += float64(w.Count() - from)
			s = sp.Child("core.Snapshot", "cow")
			t0 = time.Now()
			w.Snapshot()
			snaps = append(snaps, float64(time.Since(t0).Nanoseconds())/1e3)
			s.End()
		}
	}
	vals["core.warm_ns_per_inst"] = warmNS / insts
	vals["cow.snapshot_us"] = median(snaps)
	return nil
}

// probeEmu runs the functional emulator alone over each program.
func probeEmu(progs []benchProg, sp *telemetry.Span, vals map[string]float64) error {
	var ns, insts float64
	for _, bp := range progs {
		e := emu.New(bp.p)
		s := sp.Child("emu.Run", "emu")
		t0 := time.Now()
		n, err := e.Run(probeEmuInsts)
		ns += float64(time.Since(t0).Nanoseconds())
		s.End()
		if err != nil {
			return fmt.Errorf("%s: %w", bp.bench, err)
		}
		insts += float64(n)
	}
	vals["emu.ns_per_inst"] = ns / insts
	return nil
}

// probeStreams records each program's instruction-fetch and load/store
// address stream and its conditional-branch stream on the emulator, then
// replays them, timed, through a fresh cache hierarchy and a fresh
// perceptron predictor — the structures the core and the warmer train on
// every instruction.
func probeStreams(progs []benchProg, sp *telemetry.Span, vals map[string]float64) error {
	const dataBit = 1 << 63 // marks a data access in the address stream
	var cacheNS, accesses, bpNS, branches float64
	for _, bp := range progs {
		var addrs, brs []uint64
		err := emu.New(bp.p).RunFunc(probeStreamInsts, func(st emu.Step) bool {
			addrs = append(addrs, st.PC*8)
			if st.IsLoad || st.IsStore {
				addrs = append(addrs, st.Addr|dataBit)
			}
			if st.Inst.Op == isa.BR {
				b := st.PC << 1
				if st.Taken {
					b |= 1
				}
				brs = append(brs, b)
			}
			return true
		})
		if err != nil {
			return fmt.Errorf("%s: %w", bp.bench, err)
		}

		h := cache.NewHierarchy(cache.DefaultHierarchyConfig())
		s := sp.Child("cache.replay", "cache")
		t0 := time.Now()
		for _, a := range addrs {
			if a&dataBit != 0 {
				h.DataLatency(a &^ dataBit)
			} else {
				h.InstLatency(a)
			}
		}
		cacheNS += float64(time.Since(t0).Nanoseconds())
		s.End()
		accesses += float64(len(addrs))

		p := bpred.NewPerceptron(bpred.DefaultPerceptronConfig())
		var g bpred.GHR
		s = sp.Child("bpred.replay", "bpred")
		t0 = time.Now()
		for _, b := range brs {
			pc, taken := b>>1, b&1 == 1
			p.Predict(pc, g)
			p.Update(pc, g, taken)
			g = g.Push(taken)
		}
		bpNS += float64(time.Since(t0).Nanoseconds())
		s.End()
		branches += float64(len(brs))
	}
	vals["cache.ns_per_access"] = cacheNS / accesses
	vals["bpred.ns_per_branch"] = bpNS / branches
	return nil
}

// probeStore writes the core probe's results into a scratch store,
// reopens it, and reads every result back, checking each round trip.
func probeStore(results []storedResult, sp *telemetry.Span, vals map[string]float64) error {
	dir, err := os.MkdirTemp("", "dmpbench-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var puts, gets []float64
	digests := make([]string, len(results))
	for i, r := range results {
		s := sp.Child("store.Put", "store")
		t0 := time.Now()
		d, err := st.Put(r.meta, r.st)
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
		s.End()
		if err != nil {
			return err
		}
		digests[i] = d
	}
	s := sp.Child("store.Open", "store")
	t0 := time.Now()
	st, err = store.Open(dir)
	vals["store.open_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	s.End()
	if err != nil {
		return err
	}
	for i, d := range digests {
		s := sp.Child("store.Get", "store")
		t0 := time.Now()
		got, ok := st.Get(d)
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
		s.End()
		if !ok || *got != *results[i].st {
			return fmt.Errorf("store: %s did not read back what was written", results[i].meta.Bench)
		}
	}
	vals["store.put_us_p50"] = median(puts)
	vals["store.get_us_p50"] = median(gets)
	return nil
}

// rng is splitmix64, the benchmark's only source of input randomness;
// every stream is seeded from -seed.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// permute returns a seeded Fisher-Yates shuffle of xs.
func permute[T any](xs []T, seed uint64) []T {
	out := append([]T(nil), xs...)
	r := rng{seed}
	for i := len(out) - 1; i > 0; i-- {
		k := int(r.next() % uint64(i+1))
		out[i], out[k] = out[k], out[i]
	}
	return out
}

func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
