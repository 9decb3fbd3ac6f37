package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/fttest"
	"morphstreamr/internal/types"
	"morphstreamr/internal/vtime"
	"morphstreamr/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/recovery_profiles.golden from this tree")

// TestRecoveryProfileGolden pins the virtual recovery model end to end:
// under FixedCosts (what Execute prices every recovery with), every
// mechanism recovers an SL, GS and TP run at one and
// four workers, and each recovery profile — timeline, critical path and
// lower bound, every lane's exec/explore/abort/phase/stall clock, every
// phase's values, and the stall totals per edge kind — must equal the
// committed rendering. The run shape leaves an uncommitted tail, so the
// engine's reprocess path is priced alongside each mechanism's replay.
// Regenerate with -update only for a deliberate model change.
func TestRecoveryProfileGolden(t *testing.T) {
	var b strings.Builder
	for _, kind := range []ftapi.Kind{ftapi.CKPT, ftapi.WAL, ftapi.DL, ftapi.LV, ftapi.MSR} {
		for i, mk := range []func(int64) workload.Generator{fttest.SLGen, fttest.GSGen, fttest.TPGen} {
			for _, w := range []int{1, 4} {
				run, err := Execute(Scenario{
					Gen:  func() workload.Generator { return mk(11) },
					Kind: kind,
					Scale: Scale{
						RunShape:  types.RunShape{Workers: w, CommitEvery: 2, SnapshotEvery: 4},
						BatchSize: 192, PostEpochs: 3,
					},
					Prof: vtime.NewProfiler(w),
				})
				if err != nil {
					t.Fatal(err)
				}
				p := run.Recovery.Profile
				fmt.Fprintf(&b, "%v/%s/W=%d events=%d timeline=%d critpath=%d lowerbound=%d stalls=%v\n", kind, []string{"SL", "GS", "TP"}[i],
					w, run.Recovery.EventsReplayed, p.Timeline, p.CritPath, p.LowerBound, p.StallByEdge)
				for _, l := range p.Lanes {
					fmt.Fprintf(&b, "  lane %d exec=%d explore=%d abort=%d phase=%d stall=%d\n",
						l.Worker, l.Exec, l.Explore, l.Abort, l.PhaseWork, l.Stall)
				}
				for _, ph := range p.Phases {
					fmt.Fprintf(&b, "  phase %s %s start=%d makespan=%d critpath=%d work=%d lowerbound=%d active=%d\n",
						ph.Name, ph.Kind, ph.Start, ph.Makespan, ph.CritPath, ph.Work, ph.LowerBound, ph.ActiveLanes)
				}
			}
		}
	}

	const path = "testdata/recovery_profiles.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("recovery profile diverges at line %d:\n got  %q\n want %q", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("rendering has %d lines, want %d", len(gl), len(wl))
	}
}
