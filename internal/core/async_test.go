package core

import (
	"fmt"
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/storage"
)

// Asynchronous commit (Section VII's off-critical-path logging direction)
// must preserve every guarantee the synchronous path has: exactly-once
// delivery across crashes at any epoch, and oracle-equal state. The crash
// points here are the interesting ones — between a prepared commit and its
// completion is unobservable from outside ProcessBatch, but crashing right
// after an epoch whose commit may still be in flight exercises the
// delivery-watermark capping.
func TestAsyncCommitCrashRecoveryEquivalence(t *testing.T) {
	kinds := []ftapi.Kind{ftapi.WAL, ftapi.DL, ftapi.LV, ftapi.MSR}
	gens := itGenerators()
	for _, name := range []string{"SL", "TP"} {
		mkGen := gens[name]
		for _, kind := range kinds {
			for crashAfter := 1; crashAfter <= itEpochs; crashAfter += 3 {
				t.Run(fmt.Sprintf("%s/%v/crash@%d", name, kind, crashAfter), func(t *testing.T) {
					gen := mkGen()
					epochs := epochSlices(gen, itEpochs, itBatch)
					o, wantOuts := oracleRun(gen.App(), epochs)

					cfg := itConfig(kind)
					cfg.AsyncCommit = true
					sys, err := New(gen.App(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < crashAfter; i++ {
						if err := sys.ProcessBatch(epochs[i]); err != nil {
							t.Fatal(err)
						}
					}
					sys.Crash()
					recovered, _, err := sys.Recover()
					if err != nil {
						t.Fatal(err)
					}
					for i := crashAfter; i < itEpochs; i++ {
						if err := recovered.ProcessBatch(epochs[i]); err != nil {
							t.Fatal(err)
						}
					}
					checkState(t, recovered, o)
					checkOutputs(t, recovered.Delivered(), wantOuts)
				})
			}
		}
	}
}

// TestAsyncCommitWithholdsOutputsUntilDurable: outputs of an epoch whose
// commit is still in flight must not be visible; they appear once a later
// marker drains the write.
func TestAsyncCommitOutputGating(t *testing.T) {
	gen := itGenerators()["SL"]()
	cfg := itConfig(ftapi.MSR)
	cfg.AsyncCommit = true
	cfg.CommitEvery = 1
	sys, err := New(gen.App(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 1 commits asynchronously; its outputs may be pending right
	// after ProcessBatch returns, and must be delivered (drained) by the
	// time epoch 2's marker runs.
	if err := sys.ProcessBatch(epochSlices(gen, 1, itBatch)[0]); err != nil {
		t.Fatal(err)
	}
	delivered1 := len(sys.Delivered())
	pending1 := sys.Engine.PendingOutputs()
	if delivered1+pending1 != itBatch {
		t.Fatalf("epoch 1 outputs: delivered %d + pending %d != %d", delivered1, pending1, itBatch)
	}
	gen2 := itGenerators()["SL"]()
	all := epochSlices(gen2, 2, itBatch)
	if err := sys.ProcessBatch(all[1]); err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Delivered()); got < itBatch {
		t.Errorf("epoch 1 outputs still unreleased after the next marker: delivered %d", got)
	}
}

// TestCompressionEndToEnd: the compression wrapper (Section VII's log
// compression direction) must be transparent to crash recovery and shrink
// the durable footprint.
func TestCompressionEndToEnd(t *testing.T) {
	gen := itGenerators()["SL"]()
	epochs := epochSlices(gen, itEpochs, itBatch)
	o, wantOuts := oracleRun(gen.App(), epochs)

	cfg := itConfig(ftapi.MSR)
	cfg.Compression = true
	sys, err := New(gen.App(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := sys.ProcessBatch(epochs[i]); err != nil {
			t.Fatal(err)
		}
	}
	sys.Crash()
	recovered, _, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	for i := 7; i < itEpochs; i++ {
		if err := recovered.ProcessBatch(epochs[i]); err != nil {
			t.Fatal(err)
		}
	}
	checkState(t, recovered, o)
	checkOutputs(t, recovered.Delivered(), wantOuts)

	comp, ok := sys.Cfg.Device.(*storage.Compressed)
	if !ok {
		t.Fatal("config did not wrap the device in compression")
	}
	if r := comp.Ratio(); r >= 1 {
		t.Errorf("compression ratio %.3f; event logs should compress", r)
	}
}
