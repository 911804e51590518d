package core

import (
	"testing"

	"dmp/internal/workload"
)

// wpPin is one run's exact Figure 1 fetch accounting.
type wpPin struct{ cd, ci, uops uint64 }

// wrongPathPins holds FetchedWrongCD, FetchedWrongCI and FetchedUops for
// every benchmark at scale 1 under {baseline, enhanced DMP}. The golden's
// Figure 1 table shows only rounded shares, so this is the exact record.
var wrongPathPins = map[string][2]wpPin{
	"bzip2":   {{230, 129849, 170599}, {133199, 15593, 156646}},
	"crafty":  {{102, 100992, 162691}, {117, 89309, 157039}},
	"eon":     {{279, 243, 45528}, {279, 243, 45528}},
	"gap":     {{1063, 473057, 510813}, {998, 354800, 404093}},
	"gcc":     {{5070, 32258, 60744}, {5070, 32258, 60744}},
	"gzip":    {{190, 161540, 190680}, {203, 135094, 168457}},
	"mcf":     {{160, 108771, 146130}, {169, 93087, 132924}},
	"parser":  {{133, 104104, 128317}, {270, 94187, 122659}},
	"perlbmk": {{229, 5125, 27359}, {229, 5125, 27359}},
	"twolf":   {{181, 129157, 175971}, {300, 92448, 142754}},
	"vortex":  {{99, 6228, 25946}, {333, 13477, 34686}},
	"vpr":     {{188, 178685, 215173}, {266, 151777, 193974}},
	"mesa":    {{159, 2210, 44790}, {229, 2232, 45106}},
	"ammp":    {{170, 157200, 193116}, {166, 128246, 167705}},
	"fma3d":   {{264, 104225, 135773}, {286, 83223, 117082}},
}

// TestWrongPathClassPinned pins the exact Figure 1 classification and
// fetched-uop count of every benchmark under the baseline and enhanced
// DMP machines, and checks each run's conservation laws.
func TestWrongPathClassPinned(t *testing.T) {
	for _, name := range workload.Names() {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := wrongPathPins[name]
		if !ok {
			t.Fatalf("%s: no pin", name)
		}
		p := annotatedRef(t, w, 1)
		for i, cfg := range []Config{DefaultConfig(), EnhancedDMPConfig()} {
			cfg.CheckRetirement = true
			m, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Run()
			if err != nil {
				t.Fatalf("%s %v: %v", name, cfg.Mode, err)
			}
			checkStats(t, m, st)
			if got := (wpPin{st.FetchedWrongCD, st.FetchedWrongCI, st.FetchedUops}); got != want[i] {
				t.Errorf("%s %v: CD/CI/uops = %d/%d/%d, want %d/%d/%d", name, cfg.Mode,
					got.cd, got.ci, got.uops, want[i].cd, want[i].ci, want[i].uops)
			}
		}
	}
}
