package shard_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"testing"

	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
)

// traced is one device of a proof run: a Mem medium with the write trace
// directly on it and an optional fault injector above the trace.
type traced struct {
	mem   *storage.Mem
	trace *storage.Trace
	dev   storage.Device
}

func newTraced(mem *storage.Mem, outageAt int) traced {
	tr := traced{mem: mem, trace: storage.NewTrace(mem)}
	tr.dev = tr.trace
	if outageAt >= 0 {
		tr.dev = storage.NewOutage(tr.trace, outageAt, 1)
	}
	return tr
}

var (
	durableLogs  = []string{storage.LogFT, storage.LogCkpt, shard.LogFrontier}
	durableBlobs = []string{storage.BlobSnapshot, storage.BlobMeta}
)

// eachDurable calls rec for every log record and blob for every blob on m
// a group writes, logs first.
func eachDurable(t *testing.T, m *storage.Mem, rec func(log string, r storage.Record), blob func(name string, b []byte)) {
	t.Helper()
	for _, log := range durableLogs {
		recs, err := m.ReadLog(log)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			rec(log, r)
		}
	}
	for _, name := range durableBlobs {
		if b, ok, err := m.ReadBlob(name); err != nil {
			t.Fatal(err)
		} else if ok {
			blob(name, b)
		}
	}
}

// cloneMem copies every log record and blob a group writes into a fresh Mem.
func cloneMem(t *testing.T, m *storage.Mem) *storage.Mem {
	c := storage.NewMem()
	eachDurable(t, m, func(log string, r storage.Record) {
		if err := c.Append(log, r); err != nil {
			t.Fatal(err)
		}
	}, func(name string, b []byte) {
		if err := c.WriteBlob(name, b); err != nil {
			t.Fatal(err)
		}
	})
	return c
}

// dump renders a Mem's surviving records and blobs.
func dump(t *testing.T, m *storage.Mem) (s string) {
	eachDurable(t, m, func(log string, r storage.Record) { s += fmt.Sprintf("%s@%d:%x\n", log, r.Epoch, r.Payload) },
		func(name string, b []byte) { s += fmt.Sprintf("%s:%x\n", name, b) })
	return s
}

// siteDigest is a SHA-256 over write sites, in device order.
func siteDigest(sites []storage.WriteSite) string {
	h := sha256.New()
	for _, s := range sites {
		fmt.Fprintf(h, "%s %s %d %d\n", s.Op, s.Name, s.Epoch, s.Bytes)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestHealGroupRungWritesWhatGroupRecoverWrites is the proof that healing
// a group in place writes what rebuilding it with GroupRecover wrote. For
// every mechanism, two shards of Grep&Sum die mid-run in three ways: a
// group kill between epochs; both shards dying inside one epoch on
// different writes, one after its commit of the epoch and one on it, so
// they recover to different epochs and one is re-fed; and both dying on
// that commit, after which an event-less epoch is fed (its replication
// orders against the sequence floor the frontier log recorded, not against
// the lost epoch's events). The
// group is then recovered two ways: (a) g.Heal in place, whose shard rung
// is refused, and (b) GroupRecover into a fresh group over byte copies of
// the same devices. Fed the rest of the run, both write the same sites in
// the same order on every device and leave the same bytes, every shard of
// both equals the oracle, and (a)'s ledger across incarnations is
// exactly-once.
func TestHealGroupRungWritesWhatGroupRecoverWrites(t *testing.T) {
	const n, epochs, died = 2, 12, 8
	app, batches := gsRun(29, epochs, 24)
	shape := sweepShape(n)
	group := func(kind ftapi.Kind, devs []traced, coord traced, ledgers shard.Ledgers) shard.Config {
		cfg := shard.Config{GroupShape: shape, App: app, Kind: kind, CoordDev: coord.dev, Sink: ledgers.Sink}
		for _, d := range devs {
			cfg.Devices = append(cfg.Devices, d.dev)
		}
		return cfg
	}
	for _, kind := range []ftapi.Kind{ftapi.CKPT, ftapi.WAL, ftapi.DL, ftapi.LV, ftapi.MSR} {
		// Each shard's first write of epoch `died` — its commit (for CKPT:
		// its snapshot) — from a fault-free run.
		free := []traced{newTraced(storage.NewMem(), -1), newTraced(storage.NewMem(), -1)}
		g, err := shard.NewGroup(group(kind, free, newTraced(storage.NewMem(), -1), make(shard.Ledgers, n)))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Run(batches[:died-1]); err != nil {
			t.Fatal(err)
		}
		commitAt := func(d int) int { return len(free[d].trace.Sites()) }

		for _, flavour := range []string{"kill", "both-die", "both-lose-commit"} {
			name := fmt.Sprintf("%v/%s", kind, flavour)
			outage := map[string][]int{
				"kill":             {-1, -1},
				"both-die":         {commitAt(0) + 1, commitAt(1)},
				"both-lose-commit": {commitAt(0), commitAt(1)},
			}[flavour]
			devs := []traced{newTraced(storage.NewMem(), outage[0]), newTraced(storage.NewMem(), outage[1])}
			coord := newTraced(storage.NewMem(), -1)
			healed := make(shard.Ledgers, n)
			g, err := shard.NewGroup(group(kind, devs, coord, healed))
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Run(batches[:died-1]); err != nil {
				t.Fatal(err)
			}
			if flavour == "kill" {
				g.Crash()
			}
			procErr := g.ProcessEpoch(batches[died-1])
			var serr *shard.ShardError
			if wantShard := flavour != "kill"; procErr == nil || errors.As(procErr, &serr) != wantShard {
				t.Fatalf("%s: epoch %d failed with %v", name, died, procErr)
			}
			all := append(append([]traced(nil), devs...), coord)
			mark := make([]int, len(all))
			copies := make([]traced, len(all))
			for i, d := range all {
				mark[i] = len(d.trace.Sites())
				copies[i] = newTraced(cloneMem(t, d.mem), -1)
			}
			rebuilt := make(shard.Ledgers, n) // (b) continues a copy of what (a) released
			for s, l := range healed {
				rebuilt[s] = engine.Ledger{Epochs: slices.Clone(l.Epochs), Outputs: slices.Clone(l.Outputs)}
			}

			// (a) in place.
			rep, err := g.Heal(procErr, types.BatchSource(batches))
			if err != nil {
				t.Fatalf("%s: heal: %v", name, err)
			}
			if rep.Reports[0] == nil || rep.Reports[1] == nil {
				t.Fatalf("%s: heal took the shard rung", name)
			}
			if want := map[bool]int{true: 1}[flavour == "both-die"]; rep.AlignedShards != want {
				t.Fatalf("%s: %d shards re-aligned, want %d", name, rep.AlignedShards, want)
			}
			// (b) a fresh group over byte copies of the same devices.
			g2, rep2, err := shard.GroupRecover(shard.RecoverConfig{
				Config: group(kind, copies[:n], copies[n], rebuilt), Source: types.BatchSource(batches),
			})
			if err != nil {
				t.Fatalf("%s: group recover: %v", name, err)
			}
			if rep.Target != rep2.Target || rep.AlignedShards != rep2.AlignedShards {
				t.Fatalf("%s: heal resumed at %d aligning %d, GroupRecover at %d aligning %d",
					name, rep.Target, rep.AlignedShards, rep2.Target, rep2.AlignedShards)
			}
			rest := batches[rep.Target:]
			if flavour == "both-lose-commit" {
				rest = append([][]types.Event{nil}, rest...)
			}
			if err := g.Run(rest); err != nil {
				t.Fatalf("%s: after heal: %v", name, err)
			}
			if err := g2.Run(rest); err != nil {
				t.Fatalf("%s: after GroupRecover: %v", name, err)
			}

			for i, d := range all {
				if a, b := siteDigest(d.trace.Sites()[mark[i]:]), siteDigest(copies[i].trace.Sites()); a != b {
					t.Errorf("%s: device %d writes diverge after the crash: heal %s, GroupRecover %s", name, i, a, b)
				}
				if dump(t, d.mem) != dump(t, copies[i].mem) {
					t.Errorf("%s: device %d bytes diverge between heal and GroupRecover", name, i)
				}
			}
			orc, err := shard.NewGroupOracle(app, n, append(slices.Clip(batches[:rep.Target]), rest...))
			if err != nil {
				t.Fatal(err)
			}
			verifyAgainstOracle(t, g, orc, healed)
			verifyAgainstOracle(t, g2, orc, rebuilt)
			for s := 0; s < n; s++ {
				g.Engine(s).Close()
				g2.Engine(s).Close()
			}
		}
	}
}

// TestHealRecordsOneIncident: each Heal records exactly one classified
// incident in the group's health log, whichever rung healed, a group built
// with Obs publishes that log as the registry's "health" provider, and the
// twice-healed group still ends equal to the oracle, exactly once. Neither
// rung prices its recovery: no report carries a model term, a profile or a
// simulated wall.
func TestHealRecordsOneIncident(t *testing.T) {
	app, batches := gsRun(31, 8, 24)
	o := obs.NewObserver(1, 64)
	ledgers := make(shard.Ledgers, 2)
	g, err := shard.NewGroup(shard.Config{GroupShape: sweepShape(2), App: app, Kind: ftapi.WAL, Obs: o, Sink: ledgers.Sink})
	if err != nil {
		t.Fatal(err)
	}
	src := types.BatchSource(batches)
	var healed []int // shards each heal recovered
	var priced bool  // whether any heal charged a model term or a simulated wall
	run := func(to uint64) {
		for g.Epoch() < to {
			if err := g.ProcessEpoch(batches[g.Epoch()]); err != nil {
				rep, err := g.Heal(err, src)
				if err != nil {
					t.Fatal(err)
				}
				healed = append(healed, 0)
				priced = priced || rep.SerialSim != 0 || rep.ParallelSim != 0
				for _, r := range rep.Reports {
					if r != nil {
						healed[len(healed)-1]++
						priced = priced || r.Breakdown.Total() != r.Breakdown.Reload || r.Profile != nil
					}
				}
			}
		}
	}
	run(2)
	g.Engine(1).Crash() // epoch 3 heals on the shard rung
	run(5)
	g.Crash() // epoch 6 finds the group dead: the group rung
	run(uint64(len(batches)))
	incs := g.Health().Incidents()
	if len(incs) != 2 || !incs[0].Healed || !incs[1].Healed || incs[0].RecoveredEpoch != 3 || incs[1].RecoveredEpoch != 5 {
		t.Fatalf("incidents %+v, want two healed at epochs 3 and 5", incs)
	}
	if priced || !slices.Equal(healed, []int{1, 2}) {
		t.Fatalf("heals recovered %v shards (want 1, then 2), priced %v", healed, priced)
	}
	h := o.Registry().Snapshot().Providers["health"]
	if h["incidents"] != 2 || h["last_cause"] != "io-fatal" || h["last_recovered_epoch"] != uint64(5) {
		t.Fatalf("published health %v", h)
	}
	orc, err := shard.NewGroupOracle(app, 2, batches)
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstOracle(t, g, orc, ledgers)
}
