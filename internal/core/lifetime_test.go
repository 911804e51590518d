package core

import (
	"strings"
	"testing"

	"dmp/internal/isa"
	"dmp/internal/workload"
)

// runWindow is the instruction window TestMachineRunAllocs measures.
const runWindow = 50_000

// TestMachineRunAllocs pins that the exact machine allocates nothing in
// steady state: once a warm-up window has filled the uop arena, the
// snapshot, checkpoint and episode pools, the predicate ring and the
// queues to their high-water marks, a further RunUntil window makes zero
// heap allocations, golden-model checker included.
func TestMachineRunAllocs(t *testing.T) {
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	p := annotatedRef(t, w, 3)
	for _, cfg := range []Config{DefaultConfig(), EnhancedDMPConfig()} {
		cfg.CheckRetirement = true
		m, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var rerr error
		// AllocsPerRun's first, unmeasured call is the warm-up window.
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := m.RunUntil(m.Stats.RetiredInsts + runWindow); err != nil {
				rerr = err
			}
		})
		if rerr != nil {
			t.Fatal(rerr)
		}
		if m.halted || m.Stats.RetiredInsts < 2*runWindow {
			t.Fatalf("%v: machine at %d instructions (halted %v): program too short for two windows", cfg.Mode, m.Stats.RetiredInsts, m.halted)
		}
		if allocs != 0 {
			t.Errorf("%v: a %d-instruction RunUntil window allocates %v objects; want 0", cfg.Mode, runWindow, allocs)
		}
		if _, err := m.Finish(); err != nil {
			t.Fatal(err)
		}
		checkStats(t, m, &m.Stats)
	}
}

// TestArenaHighWaterFlat pins that the uop arena is bounded by the
// instruction window, not by the run's length: retired uops return to
// the arena, so a run at scale 4 peaks at exactly as many slabs as the
// same benchmark at scale 1, within a bound set by the window.
func TestArenaHighWaterFlat(t *testing.T) {
	for _, name := range []string{"crafty", "gap", "mcf"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{DefaultConfig(), EnhancedDMPConfig()} {
			cfg.CheckRetirement = true
			var peak [2]int
			for i, scale := range []int{1, 4} {
				m, err := New(annotatedRef(t, w, scale), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.RunUntil(0); err != nil {
					t.Fatal(err)
				}
				if !m.halted {
					t.Fatalf("%s scale %d %v: run stopped before the halt", name, scale, cfg.Mode)
				}
				peak[i] = len(m.arena.chunks)
				// The ROB, the fetch queue (FetchQueueSize plus the
				// front-end delay's fetch groups), up to a ROB's worth of
				// retired producers parked between reclaim passes, and
				// half a ROB of slack for producers pinned by saved RATs
				// and squashed uops awaiting their completion events.
				bound := (2*cfg.ROBSize + m.feqCap() + cfg.ROBSize/2 + uopChunkSize - 1) / uopChunkSize
				if peak[i] > bound {
					t.Errorf("%s scale %d %v: %d slabs, over the window bound of %d", name, scale, cfg.Mode, peak[i], bound)
				}
				if _, err := m.Finish(); err != nil {
					t.Fatal(err)
				}
				checkStats(t, m, &m.Stats)
			}
			if peak[0] != peak[1] {
				t.Errorf("%s %v: %d slabs at scale 1 but %d at scale 4; the arena grows with run length", name, cfg.Mode, peak[0], peak[1])
			}
		}
	}
}

// TestSelectFromCP2AfterFalseProducerRetired covers the stale-handle case
// of select-uop insertion: CP2 names a predicted-path producer whose
// predicate resolved FALSE and which has retired, and a select-uop is
// inserted from CP2 afterwards (as when a flush rewinds fetch into the
// alternate path and the exit.pred renames again). While the episode is
// reachable the producer stays parked, so the select reads its value;
// once nothing names it, it recycles and the CP2 entry goes stale.
func TestSelectFromCP2AfterFalseProducerRetired(t *testing.T) {
	m := lsqMachine(t)
	const reg = isa.Reg(5)
	p1 := m.preds.alloc()
	m.preds.broadcast(p1, false)

	prod := m.arena.alloc(10, 0, kindInst)
	prod.renamed, prod.issued, prod.done = true, true, true
	prod.hasDst, prod.dstArch, prod.dstVal, prod.predID = true, reg, 77, p1
	gen := prod.gen

	ep := m.newEpisode()
	ep.id, ep.predID1, ep.divergePC = 1, p1, 3
	ep.cp2 = m.snapshotRAT(&m.rat)
	cp2 := m.ckpts.at(ep.cp2)
	cp2.set(reg, producerEntry(prod), true)
	m.rat.set(reg, ratEntry{val: 5}, true) // the alternate path's value

	// The producer retires predicate-FALSE; the episode's exit.pred is
	// still in the fetch queue, so CP2 stays readable.
	m.dropRetired(prod)
	exit := m.arena.alloc(20, 0, kindExitPred)
	exit.ep = ep.ref
	m.feq = append(m.feq, exit.ref)
	m.reclaimRetired()
	if prod.gen != gen {
		t.Fatal("reclaim pass recycled a producer that a reachable CP2 still names")
	}

	m.queueSelects(ep, exit.seq)
	if len(m.selPending) != 1 || !sameSource(m.selPending[0].fromCP2, cp2.e[reg]) {
		t.Fatalf("queued %d selects, want one sourcing CP2's %v", len(m.selPending), reg)
	}
	m.selEp = ep
	m.insertSelect(m.selPending[0])
	su := m.arena.at(m.rob[len(m.rob)-1])
	if m.runErr != nil {
		t.Fatal(m.runErr)
	}
	if !su.src1Ready || su.src1 != 77 {
		t.Fatalf("select src1 = %d (ready %v), want the retired producer's value 77", su.src1, su.src1Ready)
	}

	// Once no fetch-queue uop, pipeline register or pending select can
	// reach the episode, the producer recycles and CP2's entry is stale.
	m.feq, m.selPending, m.selEp = m.feq[:0], nil, nil
	m.rob = m.rob[:0]
	m.rat.set(reg, ratEntry{}, false)
	stale := cp2.e[reg]
	m.reclaimRetired()
	if prod.gen == gen || m.arena.at(stale.u).gen == stale.gen {
		t.Fatal("unreachable retired producer was not recycled")
	}
	m.operandFrom(stale, m.arena.alloc(30, 0, kindInst), 1, reg)
	if m.runErr == nil || !strings.Contains(m.runErr.Error(), "recycled producer") {
		t.Fatalf("renaming against a recycled producer gave %v, want a recycled-producer failure", m.runErr)
	}
}

// TestRenameAgainstSquashedProducerFails pins the rename-time check that
// a RAT entry never names a squashed producer: such a value would never
// broadcast, so renaming against it must fail the run, whether the
// producer's slot is still waiting for its completion event or has
// already been recycled. It must never read as a committed value. A
// producer squashed by a flush still in its slot is reported with the
// flush that squashed it, from the side table.
func TestRenameAgainstSquashedProducerFails(t *testing.T) {
	const reg = isa.Reg(7)
	for _, recycled := range []bool{false, true} {
		m := lsqMachine(t)
		m.commitRegs[reg] = 99
		m.cycle = 12
		prod := m.arena.alloc(4, 0, kindInst)
		prod.renamed, prod.issued = true, true
		prod.hasDst, prod.dstArch, prod.dstVal = true, reg, 99
		e := producerEntry(prod)
		prod.squashed = true
		m.noteSquash(prod, 3)
		want := "(squashed by seq=3 at cycle 12)"
		if recycled {
			m.recycle(prod)
			m.arena.alloc(8, 0, kindInst) // the slot's next occupant
			want = "recycled producer"
		}
		consumer := m.arena.alloc(9, 0, kindInst)
		val, ready := m.operandFrom(e, consumer, 1, reg)
		if m.runErr == nil || !strings.Contains(m.runErr.Error(), want) {
			t.Fatalf("recycled=%v: renaming against a squashed producer gave %v, want a %q failure", recycled, m.runErr, want)
		}
		if ready && val == 99 {
			t.Fatalf("recycled=%v: squashed producer read as the committed value", recycled)
		}
	}
}

// TestReclaimKeepsProducersNamedByRoots checks each root reclaimRetired
// scans: a retired producer named only by that root survives a pass, and
// recycles at the first pass after the root lets go of it. The dual-path
// stream RATs are the case a select-uop test cannot reach.
func TestReclaimKeepsProducersNamedByRoots(t *testing.T) {
	const reg = isa.Reg(9)
	roots := []struct {
		name        string
		hold, clear func(m *Machine, e ratEntry)
	}{
		{"active RAT",
			func(m *Machine, e ratEntry) { m.rat.set(reg, e, true) },
			func(m *Machine, e ratEntry) { m.rat.set(reg, ratEntry{}, false) }},
		{"dual-path stream RAT",
			func(m *Machine, e ratEntry) {
				m.dualStore[1].set(reg, e, true)
				m.dualRats[0], m.dualRats[1] = &m.dualStore[0], &m.dualStore[1]
			},
			func(m *Machine, e ratEntry) { m.dualRats[0], m.dualRats[1] = nil, nil }},
		{"pending select source",
			func(m *Machine, e ratEntry) { m.selPending = append(m.selBuf[:0], selReq{reg: reg, fromRAT: e}) },
			func(m *Machine, e ratEntry) { m.selPending = nil }},
		{"in-flight branch checkpoint",
			func(m *Machine, e ratEntry) {
				br := m.arena.alloc(2, 0, kindInst)
				br.checkpoint = m.snapshotRAT(&m.rat)
				m.ckpts.at(br.checkpoint).set(reg, e, true)
				m.rob = append(m.rob, br.ref)
			},
			func(m *Machine, e ratEntry) { m.rob = m.rob[:0] }},
		{"episode CP1 of a queued marker",
			func(m *Machine, e ratEntry) {
				ep := m.newEpisode()
				ep.cp1 = m.snapshotRAT(&m.rat)
				m.ckpts.at(ep.cp1).set(reg, e, true)
				mk := m.arena.alloc(3, 0, kindEnterAlt)
				mk.ep = ep.ref
				m.feq = append(m.feq, mk.ref)
			},
			func(m *Machine, e ratEntry) { m.feq = m.feq[:0] }},
	}
	for _, r := range roots {
		m := lsqMachine(t)
		prod := m.arena.alloc(1, 0, kindInst)
		prod.hasDst, prod.dstArch, prod.dstVal, prod.done = true, reg, 41, true
		gen := prod.gen
		e := producerEntry(prod)
		r.hold(m, e)
		m.dropRetired(prod)
		m.reclaimRetired()
		if prod.gen != gen {
			t.Errorf("%s: a retired producer it names was recycled", r.name)
			continue
		}
		r.clear(m, e)
		m.reclaimRetired()
		if prod.gen == gen {
			t.Errorf("%s: producer not recycled once nothing names it", r.name)
		}
	}
}
