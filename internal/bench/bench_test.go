package bench

import (
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// These tests pin the paper's qualitative claims — who wins, in which
// direction an axis bends — at a reduced scale. They deliberately assert
// only orderings that are robust across hosts; the absolute factors are
// recorded (not asserted) in EXPERIMENTS.md.

// shapeScale is small enough for the test suite yet large enough that the
// structural effects dominate noise.
func shapeScale() Scale {
	return Scale{
		RunShape:  types.RunShape{Workers: 8, SnapshotEvery: 4},
		BatchSize: 2048, PostEpochs: 2, SSD: false,
	}
}

func runKind(t *testing.T, kind ftapi.Kind, mk func(Scale, int64) workload.Generator) Run {
	t.Helper()
	scale := shapeScale()
	run, err := Execute(Scenario{
		Gen:  func() workload.Generator { return mk(scale, 1) },
		Kind: kind, Scale: scale,
	})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestExecutePopulatesRun: the scenario runner fills every field.
func TestExecutePopulatesRun(t *testing.T) {
	run := runKind(t, ftapi.MSR, SLFor)
	if run.RuntimeThroughput <= 0 || run.Events == 0 {
		t.Errorf("runtime fields empty: %+v", run)
	}
	if run.Recovery == nil || run.Recovery.EventsReplayed == 0 {
		t.Fatal("recovery missing")
	}
	if run.LogBytes == 0 {
		t.Error("no durable bytes accounted")
	}
	nat := runKind(t, ftapi.NAT, SLFor)
	if nat.Recovery != nil {
		t.Error("NAT must not recover")
	}
	if nat.RecoveryThroughput() != 0 || nat.RecoveryTime() != 0 {
		t.Error("NAT recovery metrics must be zero")
	}
}

// TestWALRecoverySlowest: sequential redo makes WAL the slowest recovery
// on every application (Figures 2 and 11).
func TestWALRecoverySlowest(t *testing.T) {
	for _, app := range Apps() {
		wal := runKind(t, ftapi.WAL, app.Make)
		for _, kind := range []ftapi.Kind{ftapi.CKPT, ftapi.LV, ftapi.MSR} {
			other := runKind(t, kind, app.Make)
			if wal.RecoveryTime() <= other.RecoveryTime() {
				t.Errorf("%s: WAL recovery (%v) not slower than %v (%v)",
					app.Name, wal.RecoveryTime(), kind, other.RecoveryTime())
			}
		}
	}
}

// TestDLConstructDominant: dependency-graph rebuild dominates DL's
// recovery relative to every other scheme (Figure 11).
func TestDLConstructDominant(t *testing.T) {
	dl := runKind(t, ftapi.DL, SLFor)
	for _, kind := range []ftapi.Kind{ftapi.CKPT, ftapi.LV, ftapi.MSR} {
		other := runKind(t, kind, SLFor)
		if dl.Recovery.Breakdown.Construct <= other.Recovery.Breakdown.Construct {
			t.Errorf("DL construct (%v) not above %v construct (%v)",
				dl.Recovery.Breakdown.Construct, kind, other.Recovery.Breakdown.Construct)
		}
	}
}

// TestMSRLogsLessThanLVAndDL: intermediate-result views are smaller than
// LSN vectors and dependency-edge records (Figure 12c).
func TestMSRArtifactsSmaller(t *testing.T) {
	msrRun := runKind(t, ftapi.MSR, SLFor)
	for _, kind := range []ftapi.Kind{ftapi.DL, ftapi.LV} {
		other := runKind(t, kind, SLFor)
		if msrRun.LogBytes >= other.LogBytes {
			t.Errorf("MSR log bytes (%d) not below %v (%d)", msrRun.LogBytes, kind, other.LogBytes)
		}
		if msrRun.PeakLiveBytes >= other.PeakLiveBytes {
			t.Errorf("MSR peak bytes (%d) not below %v (%d)", msrRun.PeakLiveBytes, kind, other.PeakLiveBytes)
		}
	}
}

// TestScalingShapes: WAL cannot scale with workers; MSR must (Figure 13).
func TestScalingShapes(t *testing.T) {
	tput := func(kind ftapi.Kind, workers int) float64 {
		scale := shapeScale()
		scale.Workers = workers
		run, err := Execute(Scenario{
			Gen:  func() workload.Generator { return GSFor(scale, 1) },
			Kind: kind, Scale: scale,
		})
		if err != nil {
			t.Fatal(err)
		}
		return run.RecoveryThroughput()
	}
	if w1, w8 := tput(ftapi.WAL, 1), tput(ftapi.WAL, 8); w8 > 1.5*w1 {
		t.Errorf("WAL scaled from %.0f to %.0f across 8 workers; sequential redo cannot scale", w1, w8)
	}
	if w1, w8 := tput(ftapi.MSR, 1), tput(ftapi.MSR, 8); w8 < 2*w1 {
		t.Errorf("MSR scaled only from %.0f to %.0f across 8 workers", w1, w8)
	}
}

// TestAbortAxisShapes: more aborting transactions speed up WAL (fewer
// committed commands to redo) — Figure 14c's most distinctive curve.
func TestAbortAxisShapes(t *testing.T) {
	tput := func(abort float64) float64 {
		scale := shapeScale()
		p := workload.DefaultGSParams()
		p.Theta, p.MultiPartitionRatio, p.AbortRatio = 0, 0.3, abort
		p.Partitions = scale.Workers
		run, err := Execute(Scenario{
			Gen:  func() workload.Generator { return workload.NewGS(p) },
			Kind: ftapi.WAL, Scale: scale,
		})
		if err != nil {
			t.Fatal(err)
		}
		return run.RecoveryThroughput()
	}
	if lo, hi := tput(0), tput(0.8); hi <= lo {
		t.Errorf("WAL at 80%% aborts (%.0f ev/s) not faster than at 0%% (%.0f ev/s)", hi, lo)
	}
}

// TestAdvisorQuadrants: the workload-aware commitment advisor must pick
// long epochs for uncontended workloads and short ones for skewed ones
// (Figure 9's trade-off).
func TestAdvisorQuadrants(t *testing.T) {
	advised := func(theta, mp float64, reads int) int {
		scale := shapeScale()
		scale.SnapshotEvery = 8
		p := workload.DefaultGSParams()
		p.Theta, p.MultiPartitionRatio, p.Reads, p.AbortRatio = theta, mp, reads, 0
		p.Partitions = scale.Workers
		run, err := Execute(Scenario{
			Gen:  func() workload.Generator { return workload.NewGS(p) },
			Kind: ftapi.MSR, Scale: scale, AutoCommit: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return run.CommitEvery
	}
	if got := advised(0, 0, 0); got != 8 {
		t.Errorf("LSFD advised %d, want 8", got)
	}
	if got := advised(1.2, 0.8, 3); got != 2 {
		t.Errorf("HSMD advised %d, want 2", got)
	}
}

// TestSelectiveLoggingWritesLess: with selective logging off, the view log
// must grow (Figure 12b's log-size axis).
func TestSelectiveLoggingWritesLess(t *testing.T) {
	logBytes := func(selective bool) int64 {
		scale := shapeScale()
		opts := defaultMSR()
		opts.SelectiveLogging = selective
		run, err := Execute(Scenario{
			Gen:  func() workload.Generator { return SLFor(scale, 1) },
			Kind: ftapi.MSR, Scale: scale, MSR: &opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		return run.LogBytes
	}
	sel, full := logBytes(true), logBytes(false)
	if sel >= full {
		t.Errorf("selective logging wrote %d bytes, full logging %d; selective must write less", sel, full)
	}
}

// TestFigureFunctionsRun: every figure function completes at quick scale —
// the harness itself must never bitrot.
func TestFigureFunctionsRun(t *testing.T) {
	scale := QuickScale()
	if _, err := Fig2(scale); err != nil {
		t.Errorf("Fig2: %v", err)
	}
	if _, err := Fig9(scale, []int{1, 2}); err != nil {
		t.Errorf("Fig9: %v", err)
	}
	if r, err := Fig11(scale); err != nil {
		t.Errorf("Fig11: %v", err)
	} else if len(r.Tables()) != 3 {
		t.Error("Fig11 must render one table per app")
	}
	if r, err := Fig11d(scale); err != nil {
		t.Errorf("Fig11d: %v", err)
	} else if len(r.Table().Rows) != 3 {
		t.Error("Fig11d must have one row per app")
	}
	if _, err := Fig12a(scale); err != nil {
		t.Errorf("Fig12a: %v", err)
	}
	if _, err := Fig12b(scale, []float64{0.2, 0.8}); err != nil {
		t.Errorf("Fig12b: %v", err)
	}
	if _, err := Fig12c(scale); err != nil {
		t.Errorf("Fig12c: %v", err)
	}
	if _, err := Fig12d(scale); err != nil {
		t.Errorf("Fig12d: %v", err)
	}
	if _, err := Fig13(scale, []int{1, 2}); err != nil {
		t.Errorf("Fig13: %v", err)
	}
	if _, err := Fig14a(scale, []float64{0, 1}); err != nil {
		t.Errorf("Fig14a: %v", err)
	}
	if _, err := Fig14b(scale, []float64{0, 1.2}); err != nil {
		t.Errorf("Fig14b: %v", err)
	}
	if _, err := Fig14c(scale, []float64{0, 0.8}); err != nil {
		t.Errorf("Fig14c: %v", err)
	}
}
