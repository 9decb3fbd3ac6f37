package shard_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/fttest"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// sweepShape is the compact run every shard test uses: two workers per
// shard, commit every 2 epochs, snapshot every 4.
func sweepShape(shards int) types.GroupShape {
	return types.GroupShape{
		RunShape: types.RunShape{Workers: 2, CommitEvery: 2, SnapshotEvery: 4},
		Shards:   shards,
	}
}

// gsRun generates a seeded Grep&Sum run: the app and the per-epoch global
// batches both the group and its oracle consume.
func gsRun(seed int64, epochs, epochSize int) (types.App, [][]types.Event) {
	gen := fttest.GSGen(seed)
	batches := make([][]types.Event, epochs)
	for i := range batches {
		batches[i] = workload.Batch(gen, epochSize)
	}
	return gen.App(), batches
}

// verifyAgainstOracle checks every shard's state and exactly-once
// application outputs, as ledgers recorded them across the shard's
// incarnations, at the group's current epoch.
func verifyAgainstOracle(t *testing.T, g *shard.Group, orc *shard.GroupOracle, ledgers shard.Ledgers) {
	t.Helper()
	last := g.Epoch()
	for s := 0; s < g.Shards(); s++ {
		if err := orc.CheckState(s, last, g.Engine(s).Store()); err != nil {
			t.Fatal(err)
		}
		if err := orc.CheckOutputs(s, last, &ledgers[s], g.Engine(s)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGroupMatchesOracle runs the live (no-crash) group protocol at
// several fan-outs and checks every shard against the sharded oracle. At
// four workers the adaptive controller morphs every shard engine
// independently, yet the group still matches the oracle and commits in
// lockstep: the shard protocol's determinism rests on the
// durable-write-neutrality of morphs, which TestGoldenDurableTranscript
// pins byte for byte. Two shards' runs carry two heartbeat (event-less)
// epochs mid-run, whose replication the group and the oracle sequence
// alike.
func TestGroupMatchesOracle(t *testing.T) {
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, n := range []int{1, 2, 4} {
				app, batches := gsRun(int64(5+workers), 6, 24)
				if n == 2 {
					batches = slices.Insert(batches, 3, nil, nil)
				}
				shape := sweepShape(n)
				shape.Workers = workers
				ledgers := make(shard.Ledgers, n)
				g, err := shard.NewGroup(shard.Config{GroupShape: shape, App: app, Kind: ftapi.WAL, Sink: ledgers.Sink})
				if err != nil {
					t.Fatal(err)
				}
				if err := g.Run(batches); err != nil {
					t.Fatalf("shards=%d: %v", n, err)
				}
				for _, committed := range g.CommittedVector() {
					if want := uint64(len(batches)); g.Epoch() != want || committed != want {
						t.Fatalf("shards=%d: group at epoch %d, committed vector %v, want all %d", n, g.Epoch(), g.CommittedVector(), want)
					}
				}
				orc, err := shard.NewGroupOracle(app, n, batches)
				if err != nil {
					t.Fatal(err)
				}
				verifyAgainstOracle(t, g, orc, ledgers)
			}
		})
	}
}

// TestLocalReadsGroup covers the replication-free mode: a partition-local
// Grep&Sum (MultiPartitionRatio 0, Partitions == Shards) runs with
// LocalReads, crashes, recovers in parallel, and continues — all verified
// against the local oracle, which skips replication exactly as the
// coordinator does.
func TestLocalReadsGroup(t *testing.T) {
	const n = 4
	p := workload.DefaultGSParams()
	p.Seed, p.Rows, p.Theta = 19, 512, 0.2
	p.Partitions, p.MultiPartitionRatio = n, 0
	gen := workload.NewGS(p)
	app := gen.App()
	batches := make([][]types.Event, 7)
	for i := range batches {
		batches[i] = workload.Batch(gen, 24)
	}
	devs := make([]storage.Device, n)
	for i := range devs {
		devs[i] = storage.NewMem()
	}
	ledgers := make(shard.Ledgers, n)
	cfg := shard.Config{
		GroupShape: sweepShape(n), App: app, Kind: ftapi.WAL,
		Devices: devs, CoordDev: storage.NewMem(), LocalReads: true, Sink: ledgers.Sink,
	}
	g, err := shard.NewGroup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(batches[:6]); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < n; s++ {
		// The coordinator must not have built a single replication event.
		for _, o := range ledgers[s].Outputs {
			if shard.IsReplication(o) {
				t.Fatalf("shard %d delivered replication ack %d in LocalReads mode", s, o.EventSeq)
			}
		}
	}
	g.Crash()

	g2, rep, err := shard.GroupRecover(shard.RecoverConfig{
		Config: cfg, Source: types.BatchSource(batches),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Target != 6 {
		t.Fatalf("recovered to epoch %d, want 6", rep.Target)
	}
	if err := g2.ProcessEpoch(batches[6]); err != nil {
		t.Fatal(err)
	}
	orc, err := shard.NewLocalGroupOracle(app, n, batches)
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstOracle(t, g2, orc, ledgers)
}

// TestWriteLocalityViolation proves the barrier rejects applications that
// write keys owned by other shards: StreamLedger transfers debit one
// account and credit another, so at two shards a cross-partition transfer
// must surface the locality error instead of silently corrupting the
// frontier.
func TestWriteLocalityViolation(t *testing.T) {
	gen := fttest.SLGen(41)
	g, err := shard.NewGroup(shard.Config{
		GroupShape: sweepShape(2), App: gen.App(), Kind: ftapi.WAL,
	})
	if err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < 6; ep++ {
		if err := g.ProcessEpoch(workload.Batch(gen, 24)); err != nil {
			if !strings.Contains(err.Error(), "write-locality") {
				t.Fatalf("want write-locality violation, got: %v", err)
			}
			if err := g.ProcessEpoch(nil); err != shard.ErrCrashed {
				t.Fatalf("group should be crashed after violation, got: %v", err)
			}
			return
		}
	}
	t.Fatal("no write-locality violation in 6 epochs of cross-partition transfers")
}

// TestGroupCrashRecoverContinue is the smoke version of the sharded sweep:
// crash the whole group after a full run, recover all shards in parallel,
// verify oracle equivalence, then keep processing and verify again. Epochs
// 6–9 carry no events and the crash lands after epoch 6 or, on a snapshot,
// after epoch 8. Recovery's source answers only epochs at or above the
// committed frontier, as a GC'd ingest manifest does: the sequence floor an
// event-less epoch orders its replication against comes from what the
// shards reloaded, and from the epoch itself when they reloaded nothing.
func TestGroupCrashRecoverContinue(t *testing.T) {
	const n = 4
	app, batches := gsRun(11, 6, 24)
	batches = slices.Insert(batches, 5, nil, nil, nil, nil)
	for _, crash := range []int{6, 8} {
		devs := make([]storage.Device, n)
		for i := range devs {
			devs[i] = storage.NewMem()
		}
		ledgers := make(shard.Ledgers, n)
		cfg := shard.Config{
			GroupShape: sweepShape(n), App: app, Kind: ftapi.CKPT,
			Devices: devs, CoordDev: storage.NewMem(), Sink: ledgers.Sink,
		}
		g, err := shard.NewGroup(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Run(batches[:crash]); err != nil {
			t.Fatal(err)
		}
		g.Crash()
		if err := g.ProcessEpoch(nil); err != shard.ErrCrashed {
			t.Fatalf("crashed group accepted an epoch: %v", err)
		}

		all, committed := types.BatchSource(batches), g.Committed()
		g2, rep, err := shard.GroupRecover(shard.RecoverConfig{Config: cfg, Source: func(ep uint64) ([]types.Event, bool) {
			if ep < committed {
				return nil, false
			}
			return all(ep)
		}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Target != uint64(crash) {
			t.Fatalf("recovered to epoch %d, want %d", rep.Target, crash)
		}
		if rep.SerialSim < rep.ParallelSim {
			t.Fatalf("serial sim %v < parallel sim %v", rep.SerialSim, rep.ParallelSim)
		}

		orc, err := shard.NewGroupOracle(app, n, batches)
		if err != nil {
			t.Fatal(err)
		}
		// The first epoch after the recovery has no events. Its replication
		// ends just below the reloaded floor (epoch 5's last sequence, 119,
		// plus one), or at n after a snapshot that left nothing to reload.
		if err := g2.ProcessEpoch(batches[crash]); err != nil {
			t.Fatalf("crash after epoch %d: %v", crash, err)
		}
		cur, err := storage.ReadFrom(devs[0], storage.LogInput, uint64(crash))
		if err != nil {
			t.Fatal(err)
		}
		rec, _, _ := cur.Next()
		cur.Close()
		evs, err := codec.DecodeEvents(rec.Payload)
		if err != nil || len(evs) == 0 {
			t.Fatalf("crash after epoch %d: epoch %d input holds %d events: %v", crash, crash+1, len(evs), err)
		}
		if last, want := evs[len(evs)-1].Seq, map[int]uint64{6: 119, 8: uint64(len(evs))}[crash]; last != want {
			t.Fatalf("crash after epoch %d: epoch %d replication ends at sequence %d, want %d", crash, crash+1, last, want)
		}
		if err := g2.Run(batches[crash+1:]); err != nil {
			t.Fatal(err)
		}
		verifyAgainstOracle(t, g2, orc, ledgers)
	}
}
