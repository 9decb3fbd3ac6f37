package engine

import (
	"strings"
	"testing"

	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/ft/wal"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// newIncEngine builds an engine with incremental checkpoints on: snapshots
// every 2 epochs, a full base only every second snapshot.
func newIncEngine(t *testing.T, dev storage.Device, gen workload.Generator) *Engine {
	t.Helper()
	bytes := metrics.NewBytes()
	e, err := New(Config{
		App: gen.App(), Device: dev, Mechanism: wal.New(dev, bytes),
		RunShape: types.RunShape{Workers: 2, CommitEvery: 2, SnapshotEvery: 2, SnapshotBase: 2},
		Bytes:    bytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestIncrementalCadence: with SnapshotEvery=2 and SnapshotBase=2, markers
// fire at epochs 2 (delta), 4 (base), 6 (delta): after six epochs the
// device holds a base blob for epoch 4 and exactly one live delta record
// (epoch 6) in the checkpoint log — the base's GC released the composed
// delta from epoch 2.
func TestIncrementalCadence(t *testing.T) {
	gen := slGen(11)
	dev := storage.NewMem()
	e := newIncEngine(t, dev, gen)
	runEpochs(t, e, gen, 6, 50)
	blob, ok, err := dev.ReadBlob(storage.BlobSnapshot)
	if err != nil || !ok {
		t.Fatalf("base blob missing: ok=%v err=%v", ok, err)
	}
	chk, err := New(Config{
		App: gen.App(), Device: storage.NewMem(), Mechanism: wal.New(storage.NewMem(), metrics.NewBytes()),
		RunShape: types.RunShape{Workers: 1}, Bytes: metrics.NewBytes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	baseEp, err := decodeSnapshotBlob(blob, chk.Store())
	if err != nil {
		t.Fatal(err)
	}
	if baseEp != 4 {
		t.Errorf("base blob at epoch %d, want 4", baseEp)
	}
	recs, err := dev.ReadLog(storage.LogCkpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Epoch != 6 {
		eps := make([]uint64, len(recs))
		for i, r := range recs {
			eps[i] = r.Epoch
		}
		t.Errorf("checkpoint log holds deltas at epochs %v, want [6]", eps)
	}
}

// TestIncrementalDeltaBytes: a delta record covers only the partitions the
// interval dirtied, so on a workload whose per-interval working set is a
// fraction of the table it must be strictly smaller than the full base blob.
func TestIncrementalDeltaBytes(t *testing.T) {
	p := workload.DefaultSLParams()
	p.Seed, p.Rows = 12, 4096
	gen := workload.NewSL(p)
	dev := storage.NewMem()
	e := newIncEngine(t, dev, gen)
	runEpochs(t, e, gen, 6, 20)
	blob, ok, _ := dev.ReadBlob(storage.BlobSnapshot)
	if !ok {
		t.Fatal("base blob missing")
	}
	recs, _ := dev.ReadLog(storage.LogCkpt)
	if len(recs) == 0 {
		t.Fatal("no delta records")
	}
	for _, rec := range recs {
		if len(rec.Payload) >= len(blob) {
			t.Errorf("delta at epoch %d is %d bytes, not below the %d-byte base",
				rec.Epoch, len(rec.Payload), len(blob))
		}
	}
}

// crashedInc runs six epochs with incremental checkpoints, crashes, and
// returns the device and a function that recovers from it and checks the
// recovered store and frontier against the pre-crash run.
func crashedInc(t *testing.T) (storage.Device, func(what string) error) {
	t.Helper()
	gen := slGen(13)
	dev := storage.NewMem()
	e := newIncEngine(t, dev, gen)
	runEpochs(t, e, gen, 6, 50)
	want := e.Store()
	e.Crash()
	return dev, func(what string) error {
		bytes := metrics.NewBytes()
		e2, report, err := Recover(Config{
			App: gen.App(), Device: dev, Mechanism: wal.New(dev, bytes),
			RunShape: types.RunShape{Workers: 2, CommitEvery: 2, SnapshotEvery: 2, SnapshotBase: 2},
			Bytes:    bytes,
		})
		if err != nil {
			return err
		}
		if report.SnapshotEpoch != 6 {
			t.Errorf("%s: composed snapshot frontier %d, want 6 (base 4 + delta 6)", what, report.SnapshotEpoch)
		}
		if !want.Equal(e2.Store()) {
			t.Errorf("%s: recovered store diverges: %v", what, want.Diff(e2.Store(), 3))
		}
		return nil
	}
}

// TestIncrementalRecoveryComposesDeltas: recovery from base + delta chain
// restores the exact pre-crash store and reports the composed frontier.
func TestIncrementalRecoveryComposesDeltas(t *testing.T) {
	_, recoverInc := crashedInc(t)
	if err := recoverInc("base+delta"); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalTornDelta: a torn final delta record is logically
// truncated — recovery composes through the last whole delta and replays
// the rest from the input log — while the same garbage followed by another
// record is corruption and must fail loudly.
func TestIncrementalTornDelta(t *testing.T) {
	dev, recoverInc := crashedInc(t)
	if err := dev.Append(storage.LogCkpt, storage.Record{Epoch: 7, Payload: []byte{0xff, 0x01}}); err != nil {
		t.Fatal(err)
	}
	if err := recoverInc("torn delta"); err != nil {
		t.Fatal(err)
	}

	// The same garbage mid-log (another record follows) is corruption.
	if err := dev.Append(storage.LogCkpt, storage.Record{Epoch: 8, Payload: []byte{0x00}}); err != nil {
		t.Fatal(err)
	}
	if err := recoverInc("mid-log corruption"); err == nil || !strings.Contains(err.Error(), "delta") {
		t.Errorf("mid-log delta corruption: got %v, want a delta decode error", err)
	}
}

// TestIncrementalAgreesWithFull: the same workload run with and without
// incremental checkpoints must recover identical stores — the delta chain
// is an encoding of the snapshot, not a different semantics.
func TestIncrementalAgreesWithFull(t *testing.T) {
	run := func(base int) *Engine {
		gen := slGen(14)
		dev := storage.NewMem()
		bytes := metrics.NewBytes()
		e, err := New(Config{
			App: gen.App(), Device: dev, Mechanism: msr.New(dev, bytes, msr.Default()),
			RunShape: types.RunShape{Workers: 2, CommitEvery: 2, SnapshotEvery: 2, SnapshotBase: base},
			Bytes:    bytes,
		})
		if err != nil {
			t.Fatal(err)
		}
		runEpochs(t, e, gen, 6, 50)
		e.Crash()
		b2 := metrics.NewBytes()
		e2, _, err := Recover(Config{
			App: gen.App(), Device: dev, Mechanism: msr.New(dev, b2, msr.Default()),
			RunShape: types.RunShape{Workers: 2, CommitEvery: 2, SnapshotEvery: 2, SnapshotBase: base},
			Bytes:    b2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e2
	}
	full, inc := run(1), run(3)
	if !full.Store().Equal(inc.Store()) {
		t.Errorf("full and incremental recoveries disagree: %v", full.Store().Diff(inc.Store(), 3))
	}
}
