package exp

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dmp/internal/profile"
	"dmp/internal/prog"
)

// hammockLoop is a hard-to-predict hammock followed by an inner loop
// whose trip count (1-4) is just as hard to predict, so profiling marks
// the hammock's branch and the inner loop's branch.
const hammockLoop = `
.entry start
start:
    li   r1, 0x9E3779B97F4A7C15
    li   r2, 3000
loop:
    muli r1, r1, 6364136223846793005
    addi r1, r1, 1442695040888963407
    shri r3, r1, 33
    andi r3, r3, 1
    br.ne r3, zero, then
    addi r10, r10, 1
    jmp  join
then:
    addi r11, r11, 2
join:
    shri r4, r1, 40
    andi r4, r4, 3
inner:
    addi r12, r12, 1
    subi r4, r4, 1
    br.ge r4, zero, inner
    subi r2, r2, 1
    br.gt r2, zero, loop
    halt
`

// TestLoadAsm pins Load's -asm path, the one dmpsim, dmplint and
// dmprofile share: with and without profiling, the loaded program's
// diverge table equals assembling the file and running profile.Run by
// hand, and profiling marks the inner loop's branch as well as the
// hammock's.
func TestLoadAsm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hammock.s")
	if err := os.WriteFile(path, []byte(hammockLoop), 0o644); err != nil {
		t.Fatal(err)
	}
	tables := map[bool]map[uint64]*prog.Diverge{}
	for _, prof := range []bool{false, true} {
		got, err := Load("mcf", path, 1, prof)
		if err != nil {
			t.Fatalf("prof=%v: %v", prof, err)
		}
		want := prog.MustAssemble(hammockLoop)
		if prof {
			if _, err := profile.Run(want, profile.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		}
		if got.Hash() != want.Hash() || !reflect.DeepEqual(got.Diverge, want.Diverge) {
			t.Errorf("prof=%v: loaded diverge table %v, by hand %v", prof, got.Diverge, want.Diverge)
		}
		tables[prof] = got.Diverge
	}
	// The rows must differ where they should, or the equality above
	// proves nothing about the flag reaching the profiler.
	if len(tables[false]) != 0 {
		t.Error("an unprofiled assembly file carries diverge annotations")
	}
	loops := 0
	for _, d := range tables[true] {
		if d.Loop {
			loops++
		}
	}
	if loops == 0 || loops == len(tables[true]) {
		t.Errorf("profiling marked %d branches, %d of them loops; want loop and other marks", len(tables[true]), loops)
	}
}
