package bench

import (
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/types"
)

// TestExecutePopulatesRun: Figure 2 takes every mechanism through the
// scenario runner, which fills every field; NAT recovers nothing.
func TestExecutePopulatesRun(t *testing.T) {
	for kind, run := range renders(t, QuickScale(), Fig2).Runs {
		if run.RuntimeThroughput <= 0 || run.Events == 0 {
			t.Errorf("%v: runtime fields empty: %+v", kind, run)
		}
		if kind == ftapi.NAT {
			if run.Recovery != nil || run.RecoveryThroughput() != 0 || run.RecoveryTime() != 0 {
				t.Error("NAT must not recover")
			}
		} else if run.Recovery == nil || run.Recovery.EventsReplayed == 0 || run.LogBytes == 0 {
			t.Errorf("%v: no recovery or no durable bytes accounted", kind)
		}
	}
}

// renders runs one figure at sc and requires every table it renders to
// have rows.
func renders[R interface{ Tables() []Table }](t *testing.T, sc Scale, run func(Scale) (R, error)) R {
	t.Helper()
	r, err := run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range r.Tables() {
		if len(tb.Rows) == 0 {
			t.Errorf("%q has no rows", tb.Title)
		}
	}
	return r
}

// holds requires one of the paper's claims (claims.go) of the figure it
// reads, run at sc: the Check the figures suite of cmd/bench gates a
// full-size run on.
func holds[R interface{ Tables() []Table }](t *testing.T, c Claim[R], sc Scale, run func(Scale) (R, error)) {
	t.Helper()
	if v := c.Check(renders(t, sc, run)); !v.OK {
		t.Errorf("%s: %s", c.Name, v.Detail)
	}
}

// timedScale is what the claims read from recovery times run at. A
// recovery time includes its wall-timed device reads, and at QuickScale
// (recoveries of 0.2-1.2 ms) one read preempted on a loaded host flips an
// ordering: 2 of 60 runs failed with three test binaries on two cores.
// Twice the batch at eight workers doubles every recovery and its margins,
// and held 60 of 60. Byte counts, modelled construct time and the
// advisor's pick are deterministic and run at QuickScale.
func timedScale() Scale {
	return Scale{
		RunShape:  types.RunShape{Workers: 8, SnapshotEvery: 4},
		BatchSize: 2048, PostEpochs: 2, SSD: false,
	}
}

func TestWALRecoverySlowest(t *testing.T) { holds(t, WALRecoverySlowest, timedScale(), Fig11) }

func TestDLConstructDominant(t *testing.T) { holds(t, DLConstructDominant, QuickScale(), Fig11) }

func TestMSRArtifactsSmaller(t *testing.T) { holds(t, MSRArtifactsSmaller, QuickScale(), Fig12c) }

func TestScalingShapes(t *testing.T) {
	holds(t, ScalingShapes, timedScale(), func(s Scale) (*Fig13Result, error) { return Fig13(s, []int{1, 8}) })
}

func TestAbortAxisShapes(t *testing.T) {
	holds(t, AbortAxisShapes, timedScale(), func(s Scale) (*Fig14Result, error) { return Fig14c(s, []float64{0, 0.8}) })
}

func TestAdvisorQuadrants(t *testing.T) {
	holds(t, AdvisorQuadrants, QuickScale(), func(s Scale) (*Fig9Result, error) { return Fig9(s, []int{8}) })
}

func TestSelectiveLoggingWritesLess(t *testing.T) {
	holds(t, SelectiveLoggingWritesLess, QuickScale(), func(s Scale) (*Fig12bResult, error) { return Fig12b(s, []float64{0.2, 0.8}) })
}

// TestFigureFunctionsRun: the paper's figures no claim reads complete and
// render at QuickScale too — the harness itself must never bitrot. (The
// extensions run in CI's quick figures suite.)
func TestFigureFunctionsRun(t *testing.T) {
	sc := QuickScale()
	if r := renders(t, sc, Fig11d); len(r.Tables()[0].Rows) != len(Apps()) {
		t.Error("Fig11d must have one row per app")
	}
	renders(t, sc, Fig12a)
	renders(t, sc, Fig12d)
	renders(t, sc, func(s Scale) (*Fig14Result, error) { return Fig14a(s, []float64{0, 1}) })
	renders(t, sc, func(s Scale) (*Fig14Result, error) { return Fig14b(s, []float64{0, 1.2}) })
}

// TestFig9CrashOffSnapshot: at both scales, for the default sweep and the
// one the tests pass, Figure 9 crashes on a commit boundary of every
// setting (fig9Scale errs if a setting does not divide the snapshot
// interval) and never on a snapshot boundary, so every cell recovers
// something.
func TestFig9CrashOffSnapshot(t *testing.T) {
	for name, scale := range map[string]Scale{"quick": QuickScale(), "default": DefaultScale()} {
		for _, epochs := range [][]int{fig9Epochs, {8}} {
			sc, err := fig9Scale(scale, epochs)
			crash := sc.SnapshotEvery + sc.PostEpochs
			if err != nil || crash%sc.SnapshotEvery == 0 || crash%epochs[len(epochs)-1] != 0 {
				t.Errorf("%s %v: crash at epoch %d, snapshot every %d (%v)", name, epochs, crash, sc.SnapshotEvery, err)
			}
		}
	}
}
