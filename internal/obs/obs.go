// Package obs builds observability sinks on top of the core.Probe hook
// layer: a per-uop pipetrace (text, or Chrome trace_event JSON for
// Perfetto written through telemetry.Tracer), a dynamic-predication
// episode timeline (JSONL), an interval Stats sampler (CSV), and a
// progress probe that publishes simulated progress on a telemetry.Feed
// for telemetry.Progress to render.
//
// Every sink exposes a *core.Probe; attach one directly with
// Machine.SetProbe, or combine several with Tee. Sinks only observe:
// they never mutate core.Stats, and a run with any of them attached
// retires the exact same instruction stream as an unobserved run
// (pinned by TestObserversDoNotPerturb). The package reads no clock
// (dmpvet's nondeterminism analyzer holds it to that): host time comes
// from the telemetry writers it feeds.
//
// obs stays separate from internal/telemetry because it imports core,
// and telemetry must stay core-free so that core can later report
// per-stage host time into it.
package obs

import (
	"dmp/internal/core"
	"dmp/internal/telemetry"
)

// progressTick is ProgressProbe's cycle cadence: frequent enough for a
// multi-second reporting period to be hit within tens of milliseconds
// at real simulator speeds, rare enough to keep the feed off the
// per-cycle path.
const progressTick = 1 << 14

// ProgressProbe publishes a run's simulated progress on f: a "cycle"
// event (N = retired instructions, V = cycle) every progressTick
// cycles, and a final one with Msg "done" once Stats is final. It reads
// no clock: the feed stamps each event with host time, from which
// telemetry.Progress derives sim-IPC and host rates.
func ProgressProbe(f *telemetry.Feed) *core.Probe {
	return &core.Probe{
		TickEvery: progressTick,
		Tick: func(cycle uint64, st *core.Stats) {
			f.Emit(telemetry.Event{Kind: "cycle", N: st.RetiredInsts, V: float64(cycle)})
		},
		Done: func(st *core.Stats) {
			f.Emit(telemetry.Event{Kind: "cycle", Msg: "done", N: st.RetiredInsts, V: float64(st.Cycles)})
		},
	}
}

// Tee fans one machine probe out to several sinks. Nil probes (and nil
// callbacks within a probe) are skipped. The merged Tick runs at the
// gcd of the children's cadences and re-checks each child's own
// cadence, so every child observes exactly the cycles it asked for.
func Tee(probes ...*core.Probe) *core.Probe {
	var ps []*core.Probe
	for _, p := range probes {
		if p != nil {
			if p.Tick != nil && p.TickEvery == 0 {
				p.TickEvery = core.DefaultTickEvery
			}
			ps = append(ps, p)
		}
	}
	if len(ps) == 1 {
		return ps[0]
	}
	out := &core.Probe{}
	if len(ps) == 0 {
		return out
	}

	var uops []func(core.UopEvent)
	var eps []func(core.EpisodeEvent)
	var oracles []func(core.OracleEvent)
	var ticks []*core.Probe
	var dones []func(*core.Stats)
	for _, p := range ps {
		if p.Uop != nil {
			uops = append(uops, p.Uop)
		}
		if p.Episode != nil {
			eps = append(eps, p.Episode)
		}
		if p.Oracle != nil {
			oracles = append(oracles, p.Oracle)
		}
		if p.Tick != nil {
			ticks = append(ticks, p)
			out.TickEvery = gcd(out.TickEvery, p.TickEvery)
		}
		if p.Done != nil {
			dones = append(dones, p.Done)
		}
	}
	if len(uops) > 0 {
		out.Uop = func(ev core.UopEvent) {
			for _, f := range uops {
				f(ev)
			}
		}
	}
	if len(eps) > 0 {
		out.Episode = func(ev core.EpisodeEvent) {
			for _, f := range eps {
				f(ev)
			}
		}
	}
	if len(oracles) > 0 {
		out.Oracle = func(ev core.OracleEvent) {
			for _, f := range oracles {
				f(ev)
			}
		}
	}
	if len(ticks) > 0 {
		out.Tick = func(cycle uint64, s *core.Stats) {
			for _, p := range ticks {
				if cycle%p.TickEvery == 0 {
					p.Tick(cycle, s)
				}
			}
		}
	}
	if len(dones) > 0 {
		out.Done = func(s *core.Stats) {
			for _, f := range dones {
				f(s)
			}
		}
	}
	return out
}

func gcd(a, b uint64) uint64 {
	if a == 0 {
		return b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
