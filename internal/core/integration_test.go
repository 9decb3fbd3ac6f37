// Package core holds the end-to-end integration tests of one bare engine:
// under every fault-tolerance mechanism and every workload it must produce
// exactly the oracle's final state and output set — with and without
// crashes, at every epoch boundary, across repeated crashes, with the
// commit written asynchronously, and over compressed and file-backed
// devices. These are the paper's delivery and correctness guarantees
// (Section II-C) stated as executable checks. The directory holds no
// library code: hosts build an engine.Config or a shard.Group themselves,
// and the per-write crash sweeps live in internal/ft/crashtest.
package core

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/oracle"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

const (
	itBatch  = 200
	itEpochs = 12 // a snapshot marker: even CKPT has released everything
)

var recoverable = []ftapi.Kind{ftapi.CKPT, ftapi.WAL, ftapi.DL, ftapi.LV, ftapi.MSR}

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

// system is one engine over a durable device with every output it released
// recorded in one ledger, across every crash and recovery.
type system struct {
	app    types.App
	kind   ftapi.Kind
	dev    storage.Device
	shape  types.RunShape
	async  bool
	ledger engine.Ledger
	*engine.Engine
}

// newSystem describes kind over dev (nil means an in-memory device) with
// commit markers every 2 epochs and snapshots every 4; start builds it.
func newSystem(app types.App, kind ftapi.Kind, dev storage.Device, async bool) *system {
	if dev == nil {
		dev = storage.NewMem()
	}
	return &system{app: app, kind: kind, dev: dev, async: async,
		shape: types.RunShape{Workers: 4, CommitEvery: 2, SnapshotEvery: 4}}
}

// config is the engine configuration with a fresh mechanism over s.dev.
func (s *system) config() engine.Config {
	bytes := metrics.NewBytes()
	return engine.Config{
		RunShape:    s.shape,
		App:         s.app,
		Device:      s.dev,
		Mechanism:   ft.New(s.kind, s.dev, bytes, msr.Default()),
		AsyncCommit: s.async,
		Bytes:       bytes,
		Sink:        s.ledger.Sink,
	}
}

// start builds the first engine; the test closes whichever engine s holds
// last.
func (s *system) start(t *testing.T) {
	t.Helper()
	e, err := engine.New(s.config())
	if err != nil {
		t.Fatal(err)
	}
	s.Engine = e
	t.Cleanup(func() { s.Close() })
}

// recover rebuilds the engine from the durable device after a crash.
func (s *system) recover() (*engine.RecoveryReport, error) {
	e, report, err := engine.Recover(s.config())
	if err != nil {
		return nil, err
	}
	s.Engine = e
	return report, nil
}

// run processes epochs in order.
func (s *system) run(t *testing.T, epochs [][]types.Event) {
	t.Helper()
	for _, evs := range epochs {
		if err := s.ProcessEpoch(evs); err != nil {
			t.Fatal(err)
		}
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
func checkState(t *testing.T, s *system, o *oracle.Oracle) {
	t.Helper()
	mismatches := 0
	for _, spec := range s.app.Tables() {
		for row := uint32(0); row < spec.Rows; row++ {
			k := types.Key{Table: spec.ID, Row: row}
			got, want := s.Store().Get(k), o.Value(k)
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

				sys := newSystem(gen.App(), kind, nil, false)
				sys.start(t)
				sys.run(t, epochs)
				checkState(t, sys, o)
				if p := sys.PendingOutputs(); p != 0 {
					t.Errorf("%d outputs still pending at a snapshot boundary", p)
				}
				checkOutputs(t, sys.ledger.Outputs, wantOuts)
			})
		}
	}
}

// TestCrashRecoveryEquivalence crashes at every epoch boundary, recovers,
// finishes the stream, and checks exactly-once delivery plus final-state
// equality with the oracle.
func TestCrashRecoveryEquivalence(t *testing.T) {
	for name, mkGen := range itGenerators() {
		for _, kind := range recoverable {
			for crashAfter := 1; crashAfter <= itEpochs; crashAfter++ {
				t.Run(fmt.Sprintf("%s/%v/crash@%d", name, kind, crashAfter), func(t *testing.T) {
					gen := mkGen()
					epochs := epochSlices(gen, itEpochs, itBatch)
					o, wantOuts := oracleRun(gen.App(), epochs)

					sys := newSystem(gen.App(), kind, nil, false)
					sys.start(t)
					sys.run(t, epochs[:crashAfter])
					sys.Crash()
					if err := sys.ProcessEpoch(nil); err == nil {
						t.Fatal("crashed engine accepted work")
					}

					report, err := sys.recover()
					if err != nil {
						t.Fatal(err)
					}
					if got, want := sys.Epoch(), uint64(crashAfter); got != want {
						t.Fatalf("recovered to epoch %d, want %d", got, want)
					}
					if report.EventsReplayed != (crashAfter-int(report.SnapshotEpoch))*itBatch {
						t.Errorf("replayed %d events, want %d (snapshot at %d)",
							report.EventsReplayed, (crashAfter-int(report.SnapshotEpoch))*itBatch,
							report.SnapshotEpoch)
					}
					sys.run(t, epochs[crashAfter:])
					checkState(t, sys, o)
					if p := sys.PendingOutputs(); p != 0 {
						t.Errorf("%d outputs still pending at a snapshot boundary", p)
					}
					checkOutputs(t, sys.ledger.Outputs, wantOuts)
				})
			}
		}
	}
}

// TestDoubleCrash exercises repeated failures: crash, recover, process one
// more epoch, crash again, recover, finish. This stresses the rebuilt
// runtime state of the dependency-tracking mechanisms.
func TestDoubleCrash(t *testing.T) {
	for name, mkGen := range itGenerators() {
		for _, kind := range recoverable {
			t.Run(fmt.Sprintf("%s/%v", name, kind), func(t *testing.T) {
				gen := mkGen()
				epochs := epochSlices(gen, itEpochs, itBatch)
				o, wantOuts := oracleRun(gen.App(), epochs)

				sys := newSystem(gen.App(), kind, nil, false)
				sys.start(t)
				next := 0
				for _, n := range []int{5, 1} {
					sys.run(t, epochs[next:next+n])
					next += n
					sys.Crash()
					if _, err := sys.recover(); err != nil {
						t.Fatal(err)
					}
				}
				sys.run(t, epochs[next:])
				checkState(t, sys, o)
				checkOutputs(t, sys.ledger.Outputs, wantOuts)
			})
		}
	}
}

// TestNativeCannotRecover: native execution persists nothing, so recovery
// refuses rather than resuming from an empty state.
func TestNativeCannotRecover(t *testing.T) {
	gen := itGenerators()["SL"]()
	sys := newSystem(gen.App(), ftapi.NAT, nil, false)
	sys.start(t)
	sys.run(t, epochSlices(gen, 1, 100))
	sys.Crash()
	if _, err := sys.recover(); err == nil || !strings.Contains(err.Error(), "native") {
		t.Errorf("NAT recovery error = %v", err)
	}
}

// crashOnce runs s through itEpochs epochs of gen's stream, crashing after
// epoch crashAfter and finishing on the recovered engine, then checks state
// and outputs against the oracle.
func crashOnce(t *testing.T, s *system, gen workload.Generator, crashAfter int) {
	t.Helper()
	epochs := epochSlices(gen, itEpochs, itBatch)
	o, wantOuts := oracleRun(s.app, epochs)
	s.start(t)
	s.run(t, epochs[:crashAfter])
	s.Crash()
	if _, err := s.recover(); err != nil {
		t.Fatal(err)
	}
	s.run(t, epochs[crashAfter:])
	checkState(t, s, o)
	checkOutputs(t, s.ledger.Outputs, wantOuts)
}

// TestFileDeviceEndToEnd: the crash/recover protocol works over a real
// file-backed device — the configuration an actual deployment would use.
func TestFileDeviceEndToEnd(t *testing.T) {
	dev, err := storage.NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	gen := itGenerators()["SL"]()
	crashOnce(t, newSystem(gen.App(), ftapi.MSR, dev, false), gen, 5)
}

// Asynchronous commit (Section VII's off-critical-path logging direction)
// must preserve every guarantee the synchronous path has: exactly-once
// delivery across crashes at any epoch, and oracle-equal state. Crashing
// right after an epoch whose commit may still be in flight — a window
// unobservable from outside ProcessEpoch — exercises the
// delivery-watermark capping.
func TestAsyncCommitCrashRecoveryEquivalence(t *testing.T) {
	gens := itGenerators()
	for _, name := range []string{"SL", "TP"} {
		for _, kind := range []ftapi.Kind{ftapi.WAL, ftapi.DL, ftapi.LV, ftapi.MSR} {
			for crashAfter := 1; crashAfter <= itEpochs; crashAfter += 3 {
				t.Run(fmt.Sprintf("%s/%v/crash@%d", name, kind, crashAfter), func(t *testing.T) {
					gen := gens[name]()
					crashOnce(t, newSystem(gen.App(), kind, nil, true), gen, crashAfter)
				})
			}
		}
	}
}

// TestAsyncCommitOutputGating: outputs of an epoch whose commit is still in
// flight must not be visible; they appear once the next marker drains the
// write.
func TestAsyncCommitOutputGating(t *testing.T) {
	gen := itGenerators()["SL"]()
	sys := newSystem(gen.App(), ftapi.MSR, nil, true)
	sys.shape.CommitEvery = 1
	sys.start(t)
	sys.run(t, epochSlices(gen, 1, itBatch))
	if d, p := len(sys.ledger.Outputs), sys.PendingOutputs(); d+p != itBatch {
		t.Fatalf("epoch 1 outputs: delivered %d + pending %d != %d", d, p, itBatch)
	}
	sys.run(t, epochSlices(gen, 1, itBatch))
	if got := len(sys.ledger.Outputs); got < itBatch {
		t.Errorf("epoch 1 outputs still unreleased after the next marker: delivered %d", got)
	}
}

// TestCompressionEndToEnd: the compression wrapper (Section VII's log
// compression direction) is transparent to crash recovery and shrinks the
// durable footprint.
func TestCompressionEndToEnd(t *testing.T) {
	gen := itGenerators()["SL"]()
	dev := storage.NewCompressed(storage.NewMem())
	crashOnce(t, newSystem(gen.App(), ftapi.MSR, dev, false), gen, 7)
	if r := dev.Ratio(); r >= 1 {
		t.Errorf("compression ratio %.3f; event logs should compress", r)
	}
}
