package shard_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

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

// ftAfter records the FT-log appends of epochs above after.
type ftAfter struct {
	storage.Device
	after uint64
	recs  []storage.Record
}

func (d *ftAfter) Append(log string, rec storage.Record) error {
	if log == storage.LogFT && rec.Epoch > d.after {
		d.recs = append(d.recs, storage.Record{Epoch: rec.Epoch, Payload: slices.Clone(rec.Payload)})
	}
	return d.Device.Append(log, rec)
}

// TestGroupCrashRecoverContinue: a recovery rebuilds the replication
// events of the epochs it replays, and leaves the sequence floor, exactly as
// the live group had them. Grep&Sum on 2 and 4 shards, every mechanism:
// epochs 1–8 carry events (8 is a snapshot), 9 and 10 none, so epoch 9
// replicates epoch 8's writes below a floor set before the snapshot. The
// group crashes after epoch 8 (epoch 9's replication then orders against
// the recovered floor) or after epoch 10 (recovery rebuilds epoch 9's),
// recovers from a source holding only the epochs from the replay horizon
// on, runs 4 more epochs, and must then equal a group that never
// crashed: stores, every output released (replication acknowledgements
// carry their sequences) and every FT record appended after the crash.
func TestGroupCrashRecoverContinue(t *testing.T) {
	app, batches := gsRun(37, 14, 24)
	batches[8], batches[9] = nil, nil
	for _, n := range []int{2, 4} {
		for _, kind := range []ftapi.Kind{ftapi.CKPT, ftapi.WAL, ftapi.DL, ftapi.LV, ftapi.MSR} {
			for _, crash := range []uint64{8, 10} {
				name := fmt.Sprintf("%v/shards=%d/crash=%d", kind, n, crash)
				// run feeds a fresh group the epochs through to.
				run := func(to uint64) (*shard.Group, shard.Config, []*ftAfter, shard.Ledgers) {
					out := make(shard.Ledgers, n)
					cfg := shard.Config{GroupShape: sweepShape(n), App: app, Kind: kind, CoordDev: storage.NewMem(), Sink: out.Sink}
					devs := make([]*ftAfter, n)
					for i := range devs {
						devs[i] = &ftAfter{Device: storage.NewMem(), after: crash}
						cfg.Devices = append(cfg.Devices, devs[i])
					}
					g, err := shard.NewGroup(cfg)
					if err == nil {
						err = g.Run(batches[:to])
					}
					if err != nil {
						t.Fatal(err)
					}
					return g, cfg, devs, out
				}
				ref, _, refDevs, refOut := run(crash + 4)
				g, cfg, devs, out := run(crash)
				g.Crash()
				all, horizon := types.BatchSource(batches), g.Horizon()
				g2, _, err := shard.GroupRecover(shard.RecoverConfig{Config: cfg, Source: func(ep uint64) ([]types.Event, bool) {
					if ep < horizon {
						return nil, false // released, as a GC'd ingest manifest's are
					}
					return all(ep)
				}})
				if err == nil {
					err = g2.Run(batches[crash : crash+4])
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for s := 0; s < n; s++ {
					if !reflect.DeepEqual(g2.Engine(s).Store().Snapshot(), ref.Engine(s).Store().Snapshot()) {
						t.Errorf("%s: shard %d's store differs from the uncrashed group's", name, s)
					}
					if !reflect.DeepEqual(out[s], refOut[s]) {
						t.Errorf("%s: shard %d released other outputs than the uncrashed group", name, s)
					}
					// MSR's selective logging repartitions every 8 epochs from
					// its own start, so a recovered MSR logs what an uncrashed
					// one does only from a crash on that cadence.
					if (kind != ftapi.MSR || crash%8 == 0) && !reflect.DeepEqual(devs[s].recs, refDevs[s].recs) {
						t.Errorf("%s: shard %d's FT records after the crash differ from the uncrashed group's", name, s)
					}
					ref.Engine(s).Close()
					g2.Engine(s).Close()
				}
			}
		}
	}
}
