package engine

import (
	"errors"
	"strings"
	"testing"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/ft/checkpoint"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/ft/wal"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/store"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

func slGen(seed int64) workload.Generator {
	p := workload.DefaultSLParams()
	p.Seed, p.Rows = seed, 512
	return workload.NewSL(p)
}

// runEpochs feeds e n generated epochs of size events each.
func runEpochs(t *testing.T, e *Engine, gen workload.Generator, n, size int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := e.ProcessEpoch(workload.Batch(gen, size)); err != nil {
			t.Fatal(err)
		}
	}
}

func newEngine(t *testing.T, kind ftapi.Kind, gen workload.Generator, dev storage.Device, commitEvery, snapEvery int) *Engine {
	t.Helper()
	bytes := metrics.NewBytes()
	var mech ftapi.Mechanism
	switch kind {
	case ftapi.CKPT:
		mech = checkpoint.New()
	case ftapi.WAL:
		mech = wal.New(dev, bytes)
	case ftapi.MSR:
		mech = msr.New(dev, bytes, msr.Default())
	default:
		t.Fatalf("unsupported kind %v in this helper", kind)
	}
	e, err := New(Config{
		App: gen.App(), Device: dev, Mechanism: mech,
		RunShape: types.RunShape{Workers: 2, CommitEvery: commitEvery, SnapshotEvery: snapEvery},
		Bytes:    bytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidation(t *testing.T) {
	gen := slGen(1)
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	_, err := New(Config{
		App: gen.App(), Device: storage.NewMem(), Mechanism: checkpoint.New(),
		RunShape: types.RunShape{CommitEvery: 3, SnapshotEvery: 8},
	})
	if err == nil || !strings.Contains(err.Error(), "multiple") {
		t.Errorf("misaligned markers accepted: %v", err)
	}
}

// TestOutputReleasePolicies: log-based schemes release at commit markers,
// CKPT only at snapshot markers.
func TestOutputReleasePolicies(t *testing.T) {
	gen := slGen(2)
	dev := storage.NewMem()
	e, out := newEngine(t, ftapi.WAL, gen, dev, 2, 8), &Ledger{}
	e.cfg.Sink = out.Sink
	runEpochs(t, e, gen, 1, 100)
	if len(out.Outputs) != 0 || e.PendingOutputs() != 100 {
		t.Fatalf("epoch 1 (no marker): delivered=%d pending=%d", len(out.Outputs), e.PendingOutputs())
	}
	runEpochs(t, e, gen, 1, 100)
	if len(out.Outputs) != 200 || e.PendingOutputs() != 0 {
		t.Fatalf("epoch 2 (commit marker): delivered=%d pending=%d", len(out.Outputs), e.PendingOutputs())
	}

	genC := slGen(2)
	ec, outC := newEngine(t, ftapi.CKPT, genC, storage.NewMem(), 2, 4), &Ledger{}
	ec.cfg.Sink = outC.Sink
	runEpochs(t, ec, genC, 3, 50)
	if len(outC.Outputs) != 0 {
		t.Fatalf("CKPT released %d outputs before any snapshot", len(outC.Outputs))
	}
	runEpochs(t, ec, genC, 1, 50)
	if len(outC.Outputs) != 200 {
		t.Fatalf("CKPT at snapshot: delivered=%d, want 200", len(outC.Outputs))
	}
}

// TestGCShrinksLogs: after a snapshot, covered input and FT records are
// truncated from the device.
func TestGCShrinksLogs(t *testing.T) {
	gen := slGen(3)
	dev := storage.NewMem()
	e := newEngine(t, ftapi.WAL, gen, dev, 1, 4)
	runEpochs(t, e, gen, 4, 50)
	inputs, _ := dev.ReadLog(storage.LogInput)
	ftrecs, _ := dev.ReadLog(storage.LogFT)
	if len(inputs) != 0 || len(ftrecs) != 0 {
		t.Errorf("after snapshot: %d input records, %d ft records; GC failed", len(inputs), len(ftrecs))
	}
	blob, ok, _ := dev.ReadBlob(storage.BlobSnapshot)
	if !ok || len(blob) == 0 {
		t.Error("snapshot blob missing")
	}
}

// TestRuntimeBreakdownPopulated: a logging scheme must charge I/O and
// tracking time.
func TestRuntimeBreakdownPopulated(t *testing.T) {
	gen := slGen(4)
	e := newEngine(t, ftapi.WAL, gen, storage.NewMem(), 1, 8)
	runEpochs(t, e, gen, 2, 200)
	rt := e.Runtime()
	if rt.IO == 0 || rt.Tracking == 0 {
		t.Errorf("runtime breakdown = %v; IO and tracking must be non-zero", rt)
	}
	if e.Events() != 400 || e.Throughput() <= 0 {
		t.Errorf("counters: events=%d tput=%f", e.Events(), e.Throughput())
	}
}

// TestAutoCommitConsultsAdvisor: with AutoCommit on, an MSR engine tunes
// its commit interval from the first epoch's profile; an engine Recover
// builds never does, even when its first live epoch is epoch 1.
func TestAutoCommitConsultsAdvisor(t *testing.T) {
	p := workload.DefaultGSParams()
	p.Rows, p.Theta, p.Reads = 4096, 0, 0 // LSFD: uniform, no deps
	for _, recovered := range []bool{false, true} {
		gen := workload.NewGS(p)
		dev := storage.NewMem()
		bytes := metrics.NewBytes()
		cfg := Config{
			App: gen.App(), Device: dev, Mechanism: msr.New(dev, bytes, msr.Default()),
			RunShape:   types.RunShape{Workers: 2, CommitEvery: 1, SnapshotEvery: 8},
			AutoCommit: true,
			Bytes:      bytes,
		}
		var e *Engine
		var err error
		if recovered {
			e, _, err = Recover(cfg) // an empty device: recovery lands at epoch 0
		} else {
			e, err = New(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		runEpochs(t, e, gen, 1, 1000)
		want := 8
		if recovered {
			want = 1
		}
		if got := e.CommitEvery(); got != want {
			t.Errorf("recovered=%v: LSFD auto commit interval = %d, want %d", recovered, got, want)
		}
	}
}

func TestCrashRejectsWork(t *testing.T) {
	gen := slGen(5)
	e := newEngine(t, ftapi.WAL, gen, storage.NewMem(), 1, 8)
	e.Crash()
	if err := e.ProcessEpoch(nil); err != ErrCrashed {
		t.Errorf("crashed engine returned %v", err)
	}
}

func TestNativeRecoveryImpossible(t *testing.T) {
	gen := slGen(6)
	dev := storage.NewMem()
	_, _, err := Recover(Config{
		App: gen.App(), Device: dev, Mechanism: nativeStub{},
		RunShape: types.RunShape{Workers: 1},
	})
	if err == nil {
		t.Error("native recovery must fail")
	}
}

type nativeStub struct{}

func (nativeStub) Kind() ftapi.Kind                               { return ftapi.NAT }
func (nativeStub) SealEpoch(*ftapi.EpochResult)                   {}
func (nativeStub) Commit(uint64) error                            { return nil }
func (nativeStub) GC(uint64)                                      {}
func (nativeStub) Recover(*ftapi.RecoveryContext) (uint64, error) { return 0, nil }

// TestSnapshotBlobRoundTrip: the self-describing snapshot blob restores
// both the epoch and the state.
func TestSnapshotBlobRoundTrip(t *testing.T) {
	st := store.New([]types.TableSpec{{ID: 0, Rows: 4, Init: 9}})
	st.Set(types.Key{Table: 0, Row: 2}, -5)
	w := codec.NewBuffer(0)
	encodeSnapshotBlobInto(w, 17, st.Snapshot())
	blob := w.Bytes()

	st2 := store.New([]types.TableSpec{{ID: 0, Rows: 4, Init: 9}})
	ep, err := decodeSnapshotBlob(blob, st2)
	if err != nil || ep != 17 {
		t.Fatalf("decode: epoch=%d err=%v", ep, err)
	}
	if !st.Equal(st2) {
		t.Errorf("state mismatch after round trip: %v", st.Diff(st2, 5))
	}
}

// TestRecoveryReportShape: replayed event counts and epochs line up.
func TestRecoveryReportShape(t *testing.T) {
	gen := slGen(7)
	dev := storage.NewMem()
	bytes := metrics.NewBytes()
	cfg := Config{
		App: gen.App(), Device: dev, Mechanism: wal.New(dev, bytes),
		RunShape: types.RunShape{Workers: 2, CommitEvery: 1, SnapshotEvery: 4},
		Bytes:    bytes,
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runEpochs(t, e, gen, 6, 50)
	e.Crash()
	bytes2 := metrics.NewBytes()
	cfg2 := cfg
	cfg2.Mechanism = wal.New(dev, bytes2)
	cfg2.Bytes = bytes2
	e2, report, err := Recover(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if report.SnapshotEpoch != 4 || report.CommittedEpoch != 6 || report.LastEpoch != 6 {
		t.Errorf("report epochs = %d/%d/%d, want 4/6/6",
			report.SnapshotEpoch, report.CommittedEpoch, report.LastEpoch)
	}
	if report.EventsReplayed != 100 {
		t.Errorf("events replayed = %d, want 100", report.EventsReplayed)
	}
	if report.Wall <= 0 || report.Breakdown.Total() <= 0 {
		t.Error("report timings empty")
	}
	if report.Throughput() <= 0 {
		t.Error("recovery throughput must be positive")
	}
	// The recovered engine continues processing.
	runEpochs(t, e2, gen, 1, 50)
	if e2.Epoch() != 7 {
		t.Errorf("epoch after continue = %d, want 7", e2.Epoch())
	}
}

// TestFailedEpochMarksCrashed: once ProcessEpoch surfaces a durable-write
// failure, the engine's volatile state has diverged from the device
// (outputs buffered, store mutated, epoch counter advanced past what the
// log covers), so it must refuse further work until Recover rebuilds it.
func TestFailedEpochMarksCrashed(t *testing.T) {
	gen := slGen(9)
	dev := storage.NewFaulty(storage.NewMem(), 0)
	bytes := metrics.NewBytes()
	e, err := New(Config{
		App: gen.App(), Device: dev, Mechanism: wal.New(dev, bytes),
		RunShape: types.RunShape{Workers: 2, CommitEvery: 1, SnapshotEvery: 2},
		Bytes:    bytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ProcessEpoch(workload.Batch(gen, 20)); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("expected injected failure, got %v", err)
	}
	if err := e.ProcessEpoch(workload.Batch(gen, 20)); err != ErrCrashed {
		t.Fatalf("engine accepted work after a failed epoch: %v", err)
	}
}

// TestRecoverTornInputTail: a crash mid-append can leave a torn final
// input record. Recovery must discard it (the epoch never processed, so
// nothing references it) and come back in the state of the last full
// epoch — matching a clean run of the same seeded workload.
func TestRecoverTornInputTail(t *testing.T) {
	gen := slGen(10)
	inner := storage.NewMem()
	dev := storage.NewFaultyMode(inner, 2, storage.TornWrite, storage.LogInput)
	bytes := metrics.NewBytes()
	cfg := Config{
		App: gen.App(), Device: dev, Mechanism: wal.New(dev, bytes),
		RunShape: types.RunShape{Workers: 2, CommitEvery: 1, SnapshotEvery: 8},
		Bytes:    bytes,
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		err = e.ProcessEpoch(workload.Batch(gen, 30))
		if i < 2 && err != nil {
			t.Fatalf("epoch %d: %v", i+1, err)
		}
	}
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("epoch 3 input append should have torn: %v", err)
	}
	if recs, _ := inner.ReadLog(storage.LogInput); len(recs) != 3 {
		t.Fatalf("input log has %d records, want 2 intact + 1 torn", len(recs))
	}

	// Recover against the surviving (healed) medium.
	bytes2 := metrics.NewBytes()
	cfg2 := cfg
	cfg2.Device = inner
	cfg2.Mechanism = wal.New(inner, bytes2)
	cfg2.Bytes = bytes2
	e2, report, err := Recover(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if report.CommittedEpoch != 2 || report.LastEpoch != 2 {
		t.Fatalf("recovered to committed=%d last=%d, want 2/2 (torn epoch 3 dropped)",
			report.CommittedEpoch, report.LastEpoch)
	}

	// The recovered state matches a clean 2-epoch run of the same seed.
	genRef := slGen(10)
	ref := newEngine(t, ftapi.WAL, genRef, storage.NewMem(), 1, 8)
	runEpochs(t, ref, genRef, 2, 30)
	if !ref.st.Equal(e2.st) {
		t.Errorf("recovered state diverges: %v", ref.st.Diff(e2.st, 5))
	}
}

// TestWriteFailuresSurface: every durable-write path must return the
// device's error instead of silently diverging state from the log.
func TestWriteFailuresSurface(t *testing.T) {
	gen := slGen(8)
	for budget := 0; budget < 12; budget++ {
		inner := storage.NewMem()
		dev := storage.NewFaulty(inner, budget)
		bytes := metrics.NewBytes()
		e, err := New(Config{
			App: gen.App(), Device: dev, Mechanism: wal.New(dev, bytes),
			RunShape: types.RunShape{Workers: 2, CommitEvery: 1, SnapshotEvery: 2},
			Bytes:    bytes,
		})
		if err != nil {
			t.Fatal(err)
		}
		failed := false
		for i := 0; i < 4; i++ {
			if err := e.ProcessEpoch(workload.Batch(gen, 20)); err != nil {
				if !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("budget %d: unexpected error %v", budget, err)
				}
				failed = true
				break
			}
		}
		// 4 epochs of WAL need: 4 input appends + 4 commits + 2 snapshots
		// + 2*2 truncates = 14 writes; any smaller budget must fail.
		if !failed {
			t.Fatalf("budget %d: no failure surfaced", budget)
		}
	}
}

// TestWriteSetOrder pins the guarantee the shard layer's barrier deltas
// build on: every epoch's write set reaches OnWriteSet in strictly
// ascending key order (so sorted and duplicate-free), across both of
// Streaming Ledger's tables.
func TestWriteSetOrder(t *testing.T) {
	gen := slGen(3)
	e := newEngine(t, ftapi.WAL, gen, storage.NewMem(), 2, 4)
	writeSets := 0
	e.cfg.OnWriteSet = func(ep uint64, keys []types.Key) {
		writeSets++
		for i := 1; i < len(keys); i++ {
			if !keys[i-1].Less(keys[i]) {
				t.Fatalf("epoch %d: write set not strictly ascending at %d: %v then %v", ep, i, keys[i-1], keys[i])
			}
		}
	}
	const epochs, size = 6, 80
	runEpochs(t, e, gen, epochs, size)
	if writeSets != epochs {
		t.Fatalf("OnWriteSet fired %d times, want %d", writeSets, epochs)
	}
}
