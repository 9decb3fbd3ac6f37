package core

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/oracle"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// Integration tests: the engine, under every fault-tolerance mechanism and
// every workload, must produce exactly the oracle's final state and output
// set — with and without crashes, at every interesting crash point, and
// across repeated crashes. These are the paper's delivery and correctness
// guarantees (Section II-C) stated as executable checks.

const (
	itBatch  = 200
	itEpochs = 12
)

func itConfig(kind ftapi.Kind) Config {
	return Config{
		RunShape: RunShape{Workers: 4, CommitEvery: 2, SnapshotEvery: 4},
		FT:       kind,
	}
}

// itGenerators returns small-table generator constructors per app.
func itGenerators() map[string]func() workload.Generator {
	return map[string]func() workload.Generator{
		"SL": func() workload.Generator {
			p := workload.DefaultSLParams()
			p.Rows = 2048
			p.Partitions = 4
			p.AbortRatio = 0.1
			return workload.NewSL(p)
		},
		"GS": func() workload.Generator {
			p := workload.DefaultGSParams()
			p.Rows = 2048
			p.Partitions = 4
			p.AbortRatio = 0.1
			return workload.NewGS(p)
		},
		"TP": func() workload.Generator {
			p := workload.DefaultTPParams()
			p.Segments = 1024
			p.Partitions = 4
			return workload.NewTP(p)
		},
	}
}

// epochSlices pregenerates all events split into epochs.
func epochSlices(gen workload.Generator, epochs, batch int) [][]types.Event {
	out := make([][]types.Event, epochs)
	for i := range out {
		out[i] = workload.Batch(gen, batch)
	}
	return out
}

// oracleRun executes all events sequentially and returns outputs plus the
// oracle itself for state comparison.
func oracleRun(app types.App, epochs [][]types.Event) (*oracle.Oracle, []types.Output) {
	o := oracle.New(app)
	var outs []types.Output
	for _, evs := range epochs {
		for _, ev := range evs {
			outs = append(outs, o.Apply(ev))
		}
	}
	return o, outs
}

// checkState compares the engine's store against the oracle over every
// record of every table.
func checkState(t *testing.T, sys *System, o *oracle.Oracle) {
	t.Helper()
	mismatches := 0
	for _, spec := range sys.App.Tables() {
		for row := uint32(0); row < spec.Rows; row++ {
			k := types.Key{Table: spec.ID, Row: row}
			got, want := sys.Engine.Store().Get(k), o.Value(k)
			if got != want {
				mismatches++
				if mismatches <= 5 {
					t.Errorf("state mismatch at %v: engine=%d oracle=%d", k, got, want)
				}
			}
		}
	}
	if mismatches > 5 {
		t.Errorf("... and %d more state mismatches", mismatches-5)
	}
}

// checkOutputs verifies the delivered output set is exactly the oracle's:
// no duplicates, no losses, identical payloads.
func checkOutputs(t *testing.T, delivered []types.Output, want []types.Output) {
	t.Helper()
	got := slices.Clone(delivered)
	slices.SortFunc(got, func(a, b types.Output) int { return cmp.Compare(a.EventSeq, b.EventSeq) })
	for i := range min(len(got), len(want)) {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("output %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Errorf("delivered %d outputs, oracle produced %d", len(got), len(want))
	}
}

// TestNoCrashMatchesOracle runs every app under every mechanism without
// failures and checks state and outputs against the sequential oracle.
func TestNoCrashMatchesOracle(t *testing.T) {
	for name, mkGen := range itGenerators() {
		for _, kind := range ftapi.Kinds() {
			t.Run(fmt.Sprintf("%s/%v", name, kind), func(t *testing.T) {
				gen := mkGen()
				epochs := epochSlices(gen, itEpochs, itBatch)
				o, wantOuts := oracleRun(gen.App(), epochs)

				sys, err := New(gen.App(), itConfig(kind))
				if err != nil {
					t.Fatal(err)
				}
				for _, evs := range epochs {
					if err := sys.ProcessBatch(evs); err != nil {
						t.Fatal(err)
					}
				}
				checkState(t, sys, o)
				// Epoch 12 is a snapshot marker, so even CKPT has released
				// everything.
				if p := sys.Engine.PendingOutputs(); p != 0 {
					t.Errorf("%d outputs still pending at a snapshot boundary", p)
				}
				checkOutputs(t, sys.Delivered(), wantOuts)
			})
		}
	}
}

// TestCrashRecoveryEquivalence crashes at every epoch boundary, recovers,
// finishes the stream, and checks exactly-once delivery plus final-state
// equality with the oracle.
func TestCrashRecoveryEquivalence(t *testing.T) {
	kinds := []ftapi.Kind{ftapi.CKPT, ftapi.WAL, ftapi.DL, ftapi.LV, ftapi.MSR}
	for name, mkGen := range itGenerators() {
		for _, kind := range kinds {
			for crashAfter := 1; crashAfter <= itEpochs; crashAfter++ {
				t.Run(fmt.Sprintf("%s/%v/crash@%d", name, kind, crashAfter), func(t *testing.T) {
					gen := mkGen()
					epochs := epochSlices(gen, itEpochs, itBatch)
					o, wantOuts := oracleRun(gen.App(), epochs)

					sys, err := New(gen.App(), itConfig(kind))
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < crashAfter; i++ {
						if err := sys.ProcessBatch(epochs[i]); err != nil {
							t.Fatal(err)
						}
					}
					sys.Crash()
					if err := sys.ProcessBatch(nil); err == nil {
						t.Fatal("crashed engine accepted work")
					}

					recovered, report, err := sys.Recover()
					if err != nil {
						t.Fatal(err)
					}
					if got, want := recovered.Engine.Epoch(), uint64(crashAfter); got != want {
						t.Fatalf("recovered to epoch %d, want %d", got, want)
					}
					if report.EventsReplayed != (crashAfter-int(report.SnapshotEpoch))*itBatch {
						t.Errorf("replayed %d events, want %d (snapshot at %d)",
							report.EventsReplayed, (crashAfter-int(report.SnapshotEpoch))*itBatch,
							report.SnapshotEpoch)
					}
					for i := crashAfter; i < itEpochs; i++ {
						if err := recovered.ProcessBatch(epochs[i]); err != nil {
							t.Fatal(err)
						}
					}
					checkState(t, recovered, o)
					if p := recovered.Engine.PendingOutputs(); p != 0 {
						t.Errorf("%d outputs still pending at a snapshot boundary", p)
					}
					checkOutputs(t, recovered.Delivered(), wantOuts)
				})
			}
		}
	}
}

// TestDoubleCrash exercises repeated failures: crash, recover, process one
// more epoch, crash again, recover, finish. This stresses the rebuilt
// runtime state of the dependency-tracking mechanisms.
func TestDoubleCrash(t *testing.T) {
	kinds := []ftapi.Kind{ftapi.CKPT, ftapi.WAL, ftapi.DL, ftapi.LV, ftapi.MSR}
	for name, mkGen := range itGenerators() {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s/%v", name, kind), func(t *testing.T) {
				gen := mkGen()
				epochs := epochSlices(gen, itEpochs, itBatch)
				o, wantOuts := oracleRun(gen.App(), epochs)

				sys, err := New(gen.App(), itConfig(kind))
				if err != nil {
					t.Fatal(err)
				}
				next := 0
				step := func(s *System, n int) *System {
					for i := 0; i < n && next < itEpochs; i++ {
						if err := s.ProcessBatch(epochs[next]); err != nil {
							t.Fatal(err)
						}
						next++
					}
					return s
				}
				sys = step(sys, 5)
				sys.Crash()
				sys, _, err = sys.Recover()
				if err != nil {
					t.Fatal(err)
				}
				sys = step(sys, 1)
				sys.Crash()
				sys, _, err = sys.Recover()
				if err != nil {
					t.Fatal(err)
				}
				sys = step(sys, itEpochs-next)

				checkState(t, sys, o)
				checkOutputs(t, sys.Delivered(), wantOuts)
			})
		}
	}
}
