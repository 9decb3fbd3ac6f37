package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"morphstreamr/internal/adaptive"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/wal"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
)

// transcript renders the full durable content of a Mem device — every log
// record and blob, in order — so two runs can be compared byte-for-byte.
func transcript(t *testing.T, dev *storage.Mem) string {
	t.Helper()
	var b strings.Builder
	recs, err := dev.ReadLog(storage.LogFT)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		fmt.Fprintf(&b, "%s@%d:%x\n", storage.LogFT, r.Epoch, r.Payload)
	}
	if p, ok, err := dev.ReadBlob(storage.BlobSnapshot); err != nil {
		t.Fatal(err)
	} else if ok {
		fmt.Fprintf(&b, "%s:%x\n", storage.BlobSnapshot, p)
	}
	return b.String()
}

// adaptiveEngine builds a WAL engine over a fresh Mem device with the given
// controller settings, processes epochs, and returns it with its device and
// the ledger its sink recorded.
func adaptiveEngine(t *testing.T, shape types.RunShape, force *adaptive.Strategy, epochs, epochSize int) (*Engine, *storage.Mem, *Ledger) {
	t.Helper()
	gen := slGen(42)
	dev := storage.NewMem()
	cfg := newEngine(t, ftapi.WAL, gen, dev, shape.CommitEvery, shape.SnapshotEvery).cfg
	cfg.RunShape = shape
	cfg.AdaptiveForce = force
	ledger := &Ledger{}
	cfg.Sink = ledger.Sink
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	runEpochs(t, e, gen, epochs, epochSize)
	return e, dev, ledger
}

// TestAdaptiveDurableTranscriptPin: a controller-driven run's durable write
// sequence is byte-identical to the same shape held on the work-stealing
// pool at full width every epoch (AdaptiveForce{steal, Workers}) — whatever
// strategies the controller morphed through, the sealed records, group
// commits, and snapshots must not betray it. This is the invariant that
// lets adaptivity coexist with crash recovery unchanged.
func TestAdaptiveDurableTranscriptPin(t *testing.T) {
	shape := types.RunShape{Workers: 4, CommitEvery: 2, SnapshotEvery: 4}
	pool := &adaptive.Strategy{Impl: adaptive.ImplSteal, Workers: shape.Workers}
	eS, devS, outS := adaptiveEngine(t, shape, pool, 8, 64)
	eA, devA, outA := adaptiveEngine(t, shape, nil, 8, 64)

	if got, want := transcript(t, devA), transcript(t, devS); got != want {
		t.Fatalf("controller-driven durable transcript diverges from the pinned pool's:\ncontroller:\n%s\npinned:\n%s", got, want)
	}
	if !reflect.DeepEqual(outA, outS) {
		t.Fatal("controller-driven delivered outputs diverge from the pinned pool's")
	}
	if !eA.Store().Equal(eS.Store()) {
		t.Fatalf("controller-driven final state diverges from the pinned pool's: %v", eA.Store().Diff(eS.Store(), 5))
	}
}

// TestAdaptiveCommitMorph: the controller morphs execution, never the
// commit cadence — whatever strategy it picks, the commit marker fires at
// the configured CommitEvery and at no other epoch.
func TestAdaptiveCommitMorph(t *testing.T) {
	shape := types.RunShape{Workers: 2, CommitEvery: 4, SnapshotEvery: 4}
	for _, tc := range []struct {
		epochs int
		want   uint64
	}{{1, 0}, {3, 0}, {4, 4}, {7, 4}} {
		e, _, _ := adaptiveEngine(t, shape, nil, tc.epochs, 64)
		if got := e.CommittedEpoch(); got != tc.want {
			t.Fatalf("committed epoch %d after epoch %d, want %d (CommitEvery %d)", got, tc.epochs, tc.want, shape.CommitEvery)
		}
	}
}

// TestAdaptiveForce: the override pins the controller, on either executor.
func TestAdaptiveForce(t *testing.T) {
	shape := types.RunShape{Workers: 4, CommitEvery: 2, SnapshotEvery: 4}
	for _, impl := range []string{adaptive.ImplSeq, adaptive.ImplSteal} {
		force := &adaptive.Strategy{Impl: impl, Workers: 2}
		e, _, _ := adaptiveEngine(t, shape, force, 4, 64)
		if got := e.Adaptive().Current(); got != *force {
			t.Fatalf("forced %v, controller reports %v", *force, got)
		}
		if n := e.Store().NumRecords(); n == 0 {
			t.Fatalf("forced %s run left an empty store", impl)
		}
	}
}

// TestCloseReleasesPoolWorkers counts goroutines across engine lifecycles
// held on a four-worker pool: an engine that finishes cleanly and is closed
// by its host, and one that is crashed, recovered from and continued, must
// each give every parked worker back.
func TestCloseReleasesPoolWorkers(t *testing.T) {
	shape := types.RunShape{Workers: 4, CommitEvery: 2, SnapshotEvery: 4}
	pool := &adaptive.Strategy{Impl: adaptive.ImplSteal, Workers: 4}
	// A goroutine that has signalled its exit (an earlier test's pool worker
	// after workers.Done) is counted until it returns, so the baseline is the
	// settled minimum and the final count is polled, not sampled once.
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		time.Sleep(time.Millisecond)
		base = min(base, runtime.NumGoroutine())
	}
	for i := 0; i < 8; i++ {
		gen := slGen(int64(i))
		dev := storage.NewMem()
		cfg := newEngine(t, ftapi.WAL, gen, dev, shape.CommitEvery, shape.SnapshotEvery).cfg
		cfg.RunShape, cfg.AdaptiveForce = shape, pool
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batches := runEpochs(t, e, gen, 3, 64)
		if got := runtime.NumGoroutine(); got < base+4 {
			t.Fatalf("lifecycle %d: %d goroutines with a live four-worker pool, baseline %d", i, got, base)
		}
		if i%2 == 0 {
			e.Close()
			continue
		}
		e.Crash()
		cfg.Mechanism, cfg.Inputs = wal.New(dev, cfg.Bytes), keptInputs(batches)
		e2, _, err := Recover(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runEpochs(t, e2, gen, 1, 64)
		e2.Close()
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after 8 closed lifecycles, baseline %d: pool workers leaked", got, base)
	}
}
