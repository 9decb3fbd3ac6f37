package bench

import (
	"fmt"
	"slices"
	"strings"

	"morphstreamr/internal/ft/ftapi"
)

// Claim is one of the paper's qualitative claims, checked on one figure's
// typed result R. They are orderings — who wins, which way an axis bends —
// that hold across hosts; the absolute factors are recorded, not claimed.
// cmd/bench's figures suite gates a run on Check and this package's tests
// hold a quick run to it, so each claim is written once.
type Claim[R any] struct {
	// Name is the claim's gate name; Layer is where a failure points.
	Name, Layer string
	// Want states the claim.
	Want  string
	Check func(R) Verdict
}

// Verdict is a claim checked on one result: whether it held, and the
// comparisons that failed or, when none did, the ones it was read from.
type Verdict struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// tally collects a claim's comparisons.
type tally struct{ held, failed []string }

func (t *tally) check(holds bool, format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	if holds {
		t.held = append(t.held, line)
	} else {
		t.failed = append(t.failed, line)
	}
}

func (t *tally) verdict() Verdict {
	if len(t.failed) > 0 {
		return Verdict{Detail: "not " + strings.Join(t.failed, ", not ")}
	}
	return Verdict{OK: true, Detail: strings.Join(t.held, ", ")}
}

// vsWALAndDL are the mechanisms WAL's recovery time and DL's construct
// time are compared against.
var vsWALAndDL = []ftapi.Kind{ftapi.CKPT, ftapi.LV, ftapi.MSR}

// The paper's seven claims, each with the reason it should hold.
var (
	// Sequential redo makes WAL the slowest recovery on every application.
	WALRecoverySlowest = Claim[*Fig11Result]{
		Name: "wal_recovery_slowest", Layer: "ft/wal",
		Want: "WAL's recovery time above CKPT's, LV's and MSR's on SL, GS and TP (Figure 11)",
		Check: func(r *Fig11Result) Verdict {
			var t tally
			for _, app := range Apps() {
				wal := r.Runs[app.Name][ftapi.WAL].RecoveryTime()
				for _, k := range vsWALAndDL {
					other := r.Runs[app.Name][k].RecoveryTime()
					t.check(wal > other, "%s WAL %s > %v %s ms", app.Name, ms(wal), k, ms(other))
				}
			}
			return t.verdict()
		},
	}

	// Rebuilding the dependency graph dominates DL's recovery.
	DLConstructDominant = Claim[*Fig11Result]{
		Name: "dl_construct_dominant", Layer: "ft/dl",
		Want: "DL's construct time above CKPT's, LV's and MSR's on SL (Figure 11)",
		Check: func(r *Fig11Result) Verdict {
			var t tally
			dl := r.Runs["SL"][ftapi.DL].Recovery.Breakdown.Construct
			for _, k := range vsWALAndDL {
				other := r.Runs["SL"][k].Recovery.Breakdown.Construct
				t.check(dl > other, "DL %s > %v %s ms", ms(dl), k, ms(other))
			}
			return t.verdict()
		},
	}

	// Intermediate-result views are smaller than LSN vectors and dependency
	// edges, durably and in memory.
	MSRArtifactsSmaller = Claim[*Fig12cResult]{
		Name: "msr_artifacts_smaller", Layer: "ft/msr",
		Want: "MSR's log bytes and peak live bytes below DL's and LV's on SL (Figure 12c)",
		Check: func(r *Fig12cResult) Verdict {
			var t tally
			for _, k := range []ftapi.Kind{ftapi.DL, ftapi.LV} {
				msr, other := r.Runs[ftapi.MSR], r.Runs[k]
				t.check(msr.LogBytes < other.LogBytes, "MSR log %d < %v %d B", msr.LogBytes, k, other.LogBytes)
				t.check(msr.PeakLiveBytes < other.PeakLiveBytes, "MSR peak %d < %v %d B", msr.PeakLiveBytes, k, other.PeakLiveBytes)
			}
			return t.verdict()
		},
	}

	// WAL's sequential redo cannot use more workers; MSR's recovery must.
	ScalingShapes = Claim[*Fig13Result]{
		Name: "scaling_shapes", Layer: "ft/msr",
		Want: "on GS, WAL's recovery throughput at W=8 <= 1.5x its W=1 value and MSR's >= 2x (Figure 13)",
		Check: func(r *Fig13Result) Verdict {
			w1, w8 := slices.Index(r.Workers, 1), slices.Index(r.Workers, 8)
			if w1 < 0 || w8 < 0 {
				return Verdict{Detail: fmt.Sprintf("no W=1 and W=8 cells in %v", r.Workers)}
			}
			var t tally
			wal, msr := r.Tput["GS"][ftapi.WAL], r.Tput["GS"][ftapi.MSR]
			t.check(wal[w8] <= 1.5*wal[w1], "WAL %s <= 1.5 x %s ev/s", fnum(wal[w8]), fnum(wal[w1]))
			t.check(msr[w8] >= 2*msr[w1], "MSR %s >= 2 x %s ev/s", fnum(msr[w8]), fnum(msr[w1]))
			return t.verdict()
		},
	}

	// More aborts leave WAL fewer committed commands to redo: Figure 14c's
	// most distinctive curve.
	AbortAxisShapes = Claim[*Fig14Result]{
		Name: "abort_axis_shapes", Layer: "ft/wal",
		Want: "WAL's recovery throughput at 80% aborts above its value at 0% (Figure 14c)",
		Check: func(r *Fig14Result) Verdict {
			lo, hi := slices.Index(r.Points, "0%"), slices.Index(r.Points, "80%")
			if lo < 0 || hi < 0 {
				return Verdict{Detail: fmt.Sprintf("no 0%% and 80%% points in %v", r.Points)}
			}
			var t tally
			wal := r.Tput[ftapi.WAL]
			t.check(wal[hi] > wal[lo], "WAL %s > %s ev/s", fnum(wal[hi]), fnum(wal[lo]))
			return t.verdict()
		},
	}

	// Workload-aware commitment picks long epochs for the uncontended quadrant
	// and short ones for the contended one.
	AdvisorQuadrants = Claim[*Fig9Result]{
		Name: "advisor_quadrants", Layer: "ft/msr",
		Want: "the commit advisor picks 8 epochs for LSFD and 2 for HSMD (Figure 9)",
		Check: func(r *Fig9Result) Verdict {
			var t tally
			t.check(r.Advised["LSFD"] == 8, "LSFD %d = 8", r.Advised["LSFD"])
			t.check(r.Advised["HSMD"] == 2, "HSMD %d = 2", r.Advised["HSMD"])
			return t.verdict()
		},
	}

	// Without selective logging the view log grows.
	SelectiveLoggingWritesLess = Claim[*Fig12bResult]{
		Name: "selective_logging_writes_less", Layer: "ft/msr",
		Want: "MSR's log with selective logging smaller than with full logging at every multi-partition ratio (Figure 12b)",
		Check: func(r *Fig12bResult) Verdict {
			var t tally
			for i, ratio := range r.Ratios {
				sel, full := r.LogBytes["selective"][i], r.LogBytes["full"][i]
				t.check(sel < full, "%.0f%% %d < %d B", 100*ratio, sel, full)
			}
			return t.verdict()
		},
	}
)
