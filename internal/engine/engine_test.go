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
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

func slGen(seed int64) workload.Generator {
	p := workload.DefaultSLParams()
	p.Seed, p.Rows = seed, 512
	return workload.NewSL(p)
}

// runEpochs feeds e n generated epochs of size events each and returns
// them.
func runEpochs(t *testing.T, e *Engine, gen workload.Generator, n, size int) [][]types.Event {
	t.Helper()
	batches := make([][]types.Event, n)
	for i := range batches {
		batches[i] = workload.Batch(gen, size)
		if err := e.ProcessEpoch(batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	return batches
}

// keptInputs is a Config.Inputs serving batches as a host keeps what it
// fed: epoch i+1 is batches[i].
func keptInputs(batches [][]types.Event) func(uint64) ([]ftapi.EpochEvents, uint64, error) {
	return func(after uint64) ([]ftapi.EpochEvents, uint64, error) {
		var out []ftapi.EpochEvents
		for ep := after + 1; ep <= uint64(len(batches)); ep++ {
			out = append(out, ftapi.EpochEvents{Epoch: ep, Events: batches[ep-1]})
		}
		return out, ^uint64(0), nil
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

// TestGCShrinksLogs: after a snapshot, covered FT records are truncated
// from the device.
func TestGCShrinksLogs(t *testing.T) {
	gen := slGen(3)
	dev := storage.NewMem()
	e := newEngine(t, ftapi.WAL, gen, dev, 1, 4)
	runEpochs(t, e, gen, 4, 50)
	if ftrecs, _ := dev.ReadLog(storage.LogFT); len(ftrecs) != 0 {
		t.Errorf("after snapshot: %d ft records; GC failed", len(ftrecs))
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

// TestAutoCommitConsultsAdvisor: an MSR engine whose host configured it
// with the advisor's pick for the first epoch's graph commits at that
// interval, and so does the engine Recover builds from the same config:
// every commit record on the device, before and after a crash off a commit
// boundary, lands on a multiple of the advice.
func TestAutoCommitConsultsAdvisor(t *testing.T) {
	const snapshotEvery, crashAfter = 16, 10
	p := workload.DefaultGSParams()
	p.Rows, p.Theta, p.Reads = 4096, 0, 0 // LSFD: uniform, no deps
	gen := workload.NewGS(p)
	first := workload.Batch(gen, 1000)
	advised := msr.Advise(tpg.BuildEvents(gen.App(), first, store.New(gen.App().Tables()).Get), snapshotEvery)
	if advised != 8 {
		t.Fatalf("LSFD advice %d, want 8", advised)
	}
	dev := storage.NewTrace(storage.NewMem())
	e := newEngine(t, ftapi.MSR, gen, dev, advised, snapshotEvery)
	if err := e.ProcessEpoch(first); err != nil {
		t.Fatal(err)
	}
	batches := append([][]types.Event{first}, runEpochs(t, e, gen, crashAfter-1, 1000)...)
	e.Crash()
	crashed := len(dev.Sites())

	cfg := e.cfg
	cfg.Bytes = metrics.NewBytes()
	cfg.Mechanism, cfg.Inputs = msr.New(dev, cfg.Bytes, msr.Default()), keptInputs(batches)
	e2, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runEpochs(t, e2, gen, 2*advised-crashAfter, 1000)
	after := 0
	for _, s := range dev.Sites() {
		if s.Op != "append" || s.Name != storage.LogFT {
			continue
		}
		if s.Epoch%uint64(advised) != 0 {
			t.Errorf("commit record at epoch %d, not a multiple of the advised %d", s.Epoch, advised)
		}
		if s.Seq >= crashed {
			after++
		}
	}
	if after == 0 {
		t.Fatal("the recovered engine wrote no commit record")
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
		RunShape: types.RunShape{Workers: 1}, Inputs: keptInputs(nil),
	})
	if err == nil || !strings.Contains(err.Error(), "native") {
		t.Errorf("native recovery must fail: %v", err)
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
	batches := runEpochs(t, e, gen, 6, 50)
	e.Crash()
	bytes2 := metrics.NewBytes()
	cfg2 := cfg
	cfg2.Mechanism = wal.New(dev, bytes2)
	cfg2.Bytes = bytes2
	cfg2.Inputs = keptInputs(batches)
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

// TestWriteFailuresSurface: every durable-write path must return the
// device's error instead of silently diverging state from the log.
func TestWriteFailuresSurface(t *testing.T) {
	gen := slGen(8)
	for budget := 0; budget < 10; budget++ {
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
		// 4 epochs of WAL need: 4 commits + 2 snapshots + 2*2 truncates =
		// 10 writes; any smaller budget must fail.
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
