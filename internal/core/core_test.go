package core

import (
	"strings"
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/workload"
)

func slGen() workload.Generator {
	p := workload.DefaultSLParams()
	p.Rows = 512
	return workload.NewSL(p)
}

func TestConfigDefaults(t *testing.T) {
	gen := slGen()
	sys, err := New(gen.App(), Config{FT: ftapi.MSR})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sys.Cfg
	if cfg.Workers != 1 || cfg.CommitEvery != 1 || cfg.SnapshotEvery != 8 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.MSR == nil || *cfg.MSR != msr.Default() {
		t.Error("MSR options must default to all optimizations on")
	}
	if cfg.Device == nil {
		t.Error("device must default to an in-memory device")
	}
}

func TestSSDModelWrapsOnce(t *testing.T) {
	gen := slGen()
	sys, err := New(gen.App(), Config{FT: ftapi.CKPT, SSDModel: true})
	if err != nil {
		t.Fatal(err)
	}
	th, ok := sys.Cfg.Device.(*storage.Throttled)
	if !ok {
		t.Fatal("SSDModel did not wrap the device")
	}
	// Recover builds a second system over the same (already wrapped)
	// device; it must not wrap again.
	sys2, err := New(gen.App(), Config{FT: ftapi.CKPT, Device: th, SSDModel: true})
	if err != nil {
		t.Fatal(err)
	}
	if sys2.Cfg.Device != storage.Device(th) {
		t.Error("SSDModel double-wrapped an already throttled device")
	}
}

func TestNativeCannotRecover(t *testing.T) {
	gen := slGen()
	sys, err := New(gen.App(), Config{FT: ftapi.NAT})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ProcessBatch(workload.Batch(gen, 100)); err != nil {
		t.Fatal(err)
	}
	sys.Crash()
	if _, _, err := sys.Recover(); err == nil || !strings.Contains(err.Error(), "native") {
		t.Errorf("NAT recovery error = %v", err)
	}
}

// TestFileDeviceEndToEnd: the crash/recover protocol works over a real
// file-backed device — the configuration an actual deployment would use.
func TestFileDeviceEndToEnd(t *testing.T) {
	dev, err := storage.NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	gen := slGen()
	epochs := epochSlices(gen, 6, 200)
	o, wantOuts := oracleRun(gen.App(), epochs)

	sys, err := New(gen.App(), Config{
		RunShape: RunShape{Workers: 2, CommitEvery: 1, SnapshotEvery: 3},
		FT:       ftapi.MSR, Device: dev,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := sys.ProcessBatch(epochs[i]); err != nil {
			t.Fatal(err)
		}
	}
	sys.Crash()
	recovered, _, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if err := recovered.ProcessBatch(epochs[5]); err != nil {
		t.Fatal(err)
	}
	checkState(t, recovered, o)
	checkOutputs(t, recovered.Delivered(), wantOuts)
}
