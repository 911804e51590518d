package emu

import (
	"dmp/internal/isa"
	"dmp/internal/prog"
)

// Checkpoint is a self-contained snapshot of an emulator's architectural
// state: registers, a deep copy of the sparse data memory, the PC, the
// instruction count, and the halt flag. The sampling driver captures one
// per detailed interval during functional fast-forward and transplants
// it into fresh machines (core.NewFromCheckpointWarm), so a checkpoint must
// stay valid after the emulator that produced it keeps running.
type Checkpoint struct {
	Regs   [isa.NumRegs]uint64
	Mem    *Memory // private copy-on-write clone; isolated from the source emulator
	PC     uint64
	Count  uint64
	Halted bool
}

// Checkpoint snapshots the emulator's current architectural state. The
// memory is cloned copy-on-write (Memory.Clone freezes shared pages), so
// the emulator may continue running (and the checkpoint may outlive it)
// without either seeing the other's writes, at O(resident pages) cost
// instead of O(footprint).
func (e *Emulator) Checkpoint() Checkpoint {
	return Checkpoint{
		Regs:   e.Regs,
		Mem:    e.Mem.Clone(),
		PC:     e.PC,
		Count:  e.Count,
		Halted: e.Halted,
	}
}

// NewFromCheckpoint returns an emulator for p restored to ck. The
// checkpoint's memory is cloned (copy-on-write), so one checkpoint can
// seed any number of emulators (the sampler seeds a machine and its
// fetch oracle from the same checkpoint) and each write stream stays
// independent.
func NewFromCheckpoint(p *prog.Program, ck Checkpoint) *Emulator {
	return &Emulator{
		Prog:   p,
		Regs:   ck.Regs,
		Mem:    ck.Mem.Clone(),
		PC:     ck.PC,
		Count:  ck.Count,
		Halted: ck.Halted,
	}
}
