package shard

import (
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// TestAdvisedGroupCommitsAtAdvisedInterval: a host that takes the MSR
// advisor's pick before configuring its group (as examples/grepsum does)
// commits at the advised interval in every incarnation. The group crashes
// off a commit boundary, so recovery reprocesses an uncommitted tail and the
// recovered group runs on to the next commit marker: every commit record on
// the device, before and after the crash, lands on a multiple of the advice.
func TestAdvisedGroupCommitsAtAdvisedInterval(t *testing.T) {
	const snapshotEvery, crashAfter, epochs = 16, 20, 30
	p := workload.DefaultGSParams()
	p.Theta, p.Reads = 0, 0 // LSFD: uniform, no dependencies
	gen := workload.NewGS(p)
	stream := make([][]types.Event, epochs)
	for i := range stream {
		stream[i] = workload.Batch(gen, 512)
	}
	first := tpg.BuildEvents(gen.App(), stream[0], store.New(gen.App().Tables()).Get)
	advised := msr.Advise(first, snapshotEvery)
	if advised != 8 {
		t.Fatalf("LSFD advice %d, want 8", advised)
	}

	dev := storage.NewTrace(storage.NewMem())
	cfg := Config{
		GroupShape: types.GroupShape{RunShape: types.RunShape{Workers: 4, CommitEvery: advised, SnapshotEvery: snapshotEvery}},
		App:        gen.App(),
		Kind:       ftapi.MSR,
		Devices:    []storage.Device{dev},
		CoordDev:   storage.NewMem(),
	}
	g, err := NewGroup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(stream[:crashAfter]); err != nil {
		t.Fatal(err)
	}
	g.Crash()
	crashed := len(dev.Sites())
	g, _, err = GroupRecover(RecoverConfig{Config: cfg, Source: types.BatchSource(stream)})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Engine(0).Close()
	if err := g.Run(stream[crashAfter:]); err != nil {
		t.Fatal(err)
	}
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
		t.Fatal("the recovered group wrote no commit record")
	}
}
