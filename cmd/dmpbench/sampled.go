package main

import (
	"fmt"
	"reflect"
	"time"

	"dmp/internal/core"
	"dmp/internal/sample"
	"dmp/internal/workload"
)

// sampledJob runs every benchmark under the enhanced DMP machine through
// sample.Run, one benchmark at a time on an nproc-slot pool: the caller
// holds one slot for the run and the interval pipeline borrows the rest.
// The sampling period grows with the scale, as exp does above the scale
// its operating points were tuned at, so each run measures a similar
// number of intervals; the seed picks the reference input's data.
type sampledJob struct {
	seededSet
	order []int
	cfg   core.Config
	slots chan struct{}
	want  []*sample.Result // first round's results, by program
}

// sampledTunedScale is the scale the default sampling period suits; see
// exp's tunedScale.
const sampledTunedScale = 3

func newSampledJob(seed uint64, smoke bool) job {
	j := &sampledJob{seededSet: seededSet{scale: 40, benches: workload.Names(), data: dataSeed(seed)},
		slots: make(chan struct{}, nproc)}
	if smoke {
		j.scale, j.benches = sampledTunedScale, j.benches[:2]
	}
	j.cfg = core.EnhancedDMPConfig()
	j.cfg.CheckRetirement = true
	j.cfg.SampleMode = true
	j.cfg.SamplePeriod = core.DefaultSamplePeriod * uint64(j.scale) / sampledTunedScale
	j.order = permute(indices(len(j.benches)), seed)
	j.want = make([]*sample.Result, len(j.benches))
	return j
}

func (j *sampledJob) round(rc *roundCtx) error {
	for _, i := range j.order {
		p := j.progs[i]
		t0 := time.Now()
		sp := rc.span.Child("sample.Run", "sample")
		j.slots <- struct{}{}
		res, err := sample.Run(p.p, j.cfg, sample.Options{Slots: j.slots})
		<-j.slots
		sp.End()
		d := time.Since(t0)
		if err == nil {
			rc.simulated(res.TotalInsts)
			err = checkSampled(res, p.insts, j.want[i])
			if j.want[i] == nil {
				j.want[i] = res
			}
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", p.bench, err)
		}
		rc.op(d, err)
	}
	return nil
}

// checkSampled checks one sampled run: the functional pass covered the
// whole program, at least two intervals give the confidence interval a
// spread, and after the first round the intervals and the extrapolated
// Stats repeat the first round's exactly.
func checkSampled(res *sample.Result, insts uint64, want *sample.Result) error {
	switch {
	case res.TotalInsts != insts:
		return fmt.Errorf("covered %d instructions, the emulator executes %d", res.TotalInsts, insts)
	case !res.Extrapolated.HaltRetired:
		return fmt.Errorf("did not reach the halt")
	case res.K < 2:
		return fmt.Errorf("only %d measured intervals", res.K)
	case want == nil:
		return nil
	case !reflect.DeepEqual(res.Intervals, want.Intervals) || !sameSimulated(res.Extrapolated, want.Extrapolated):
		return fmt.Errorf("intervals or extrapolated Stats differ from the first round's")
	}
	return nil
}
