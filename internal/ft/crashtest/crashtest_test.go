package crashtest

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/fttest"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// recoverable are the mechanisms with a recovery story; NAT persists
// nothing and is excluded by construction.
var recoverable = []ftapi.Kind{ftapi.CKPT, ftapi.WAL, ftapi.DL, ftapi.LV, ftapi.MSR}

var logBased = []ftapi.Kind{ftapi.WAL, ftapi.DL, ftapi.LV, ftapi.MSR}

var modes = []storage.FaultMode{storage.FailStop, storage.TornWrite, storage.DroppedTail}

func sweep(t *testing.T, cfg Config) {
	t.Helper()
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sites() == 0 || res.Runs != res.Sites() {
		t.Fatalf("swept %d runs over %d sites; expected one run per site", res.Runs, res.Sites())
	}
	// An untargeted sweep must have enumerated every write category the
	// run performs: input appends, the snapshot blob, GC truncations, the
	// coordinator's frontier records, and (for log-based schemes)
	// group-commit appends.
	if cfg.Target == "" {
		ops := map[string]bool{}
		for _, sites := range res.SitesByDevice {
			for _, s := range sites {
				ops[s.Op+":"+s.Name] = true
			}
		}
		want := []string{"append:" + storage.LogInput, "blob:" + storage.BlobSnapshot,
			"release:" + storage.LogInput, "append:" + shard.LogFrontier}
		if cfg.Kind != ftapi.CKPT {
			want = append(want, "append:"+storage.LogFT)
		}
		if cfg.SnapshotBase > 1 {
			want = append(want, "append:"+storage.LogCkpt) // incremental deltas
		}
		for _, w := range want {
			if !ops[w] {
				t.Errorf("sweep never crossed a %q write; enumeration incomplete (sites: %v)", w, res.SitesByDevice)
			}
		}
	}
	for _, f := range res.Failures {
		t.Errorf("%v", f)
	}
}

// TestSweepSL: every enumerated write point of a Streaming Ledger run,
// for every mechanism and every fault flavour, recovers to
// oracle-equivalent state with exactly-once outputs — and the recovered
// engine processes a further epoch correctly.
func TestSweepSL(t *testing.T) {
	for _, kind := range recoverable {
		for _, mode := range modes {
			kind, mode := kind, mode
			t.Run(kind.String()+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				sweep(t, Config{
					Kind:     kind,
					NewGen:   func() workload.Generator { return fttest.SLGen(41) },
					Mode:     mode,
					Continue: true,
				})
			})
		}
	}
}

// TestSweepGS: the same exhaustive sweep over the skewed Grep&Sum
// workload, whose parametric reads stress dependency replay.
func TestSweepGS(t *testing.T) {
	for _, kind := range recoverable {
		for _, mode := range modes {
			kind, mode := kind, mode
			t.Run(kind.String()+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				sweep(t, Config{
					Kind:     kind,
					NewGen:   func() workload.Generator { return fttest.GSGen(43) },
					Mode:     mode,
					Continue: true,
				})
			})
		}
	}
}

// TestSweepTargetedFTLog aims torn writes exclusively at group-commit
// records: every log-based mechanism must truncate the partial tail
// record on Recover and come back at the preceding commit.
func TestSweepTargetedFTLog(t *testing.T) {
	for _, kind := range logBased {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Sweep(Config{
				Kind:     kind,
				NewGen:   func() workload.Generator { return fttest.SLGen(47) },
				Mode:     storage.TornWrite,
				Target:   storage.LogFT,
				Continue: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.SitesByDevice["shard0"]) == 0 {
				t.Fatalf("%v wrote nothing to the FT log; targeted sweep is vacuous", kind)
			}
			for _, sites := range res.SitesByDevice {
				for _, s := range sites {
					if s.Name != storage.LogFT {
						t.Fatalf("targeted sweep leaked site %v", s)
					}
				}
			}
			for _, f := range res.Failures {
				t.Errorf("%v", f)
			}
		})
	}
}

// TestSweepTP: one fail-stop sweep over the Toll Processing workload,
// whose conditional aborts exercise the abort-replay path of every
// mechanism.
func TestSweepTP(t *testing.T) {
	for _, kind := range recoverable {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			sweep(t, Config{
				Kind:   kind,
				NewGen: func() workload.Generator { return fttest.TPGen(53) },
				Mode:   storage.FailStop,
			})
		})
	}
}

// TestSweepKeepsSnapshotBase: a sweep that sets only SnapshotBase still
// runs the compact preset's other knobs, and its incremental markers append
// deltas to the checkpoint log that the sweep crosses (the sweep helper
// requires an append:ckpt site once SnapshotBase > 1).
func TestSweepKeepsSnapshotBase(t *testing.T) {
	sweep(t, Config{
		Kind:     ftapi.WAL,
		NewGen:   func() workload.Generator { return fttest.SLGen(41) },
		Epochs:   8, // the snapshot at epoch 4 is a delta, the one at 8 a base
		Mode:     storage.FailStop,
		Continue: true,
		RunShape: types.RunShape{SnapshotBase: 2},
	})
}

// TestCrossMechanismAgreement: on equivalent histories (same workload,
// same clean crash boundary), all five mechanisms must recover every
// processed epoch with exactly-once outputs and the identical store — each
// equals the oracle (BoundaryStores checks both), and they pairwise agree.
func TestCrossMechanismAgreement(t *testing.T) {
	for _, epochs := range []int{3, 4, 6} { // mid-group, snapshot boundary, full run
		cfg := Config{
			NewGen: func() workload.Generator { return fttest.SLGen(59) },
			Epochs: epochs,
		}
		groups, err := BoundaryStores(cfg, recoverable)
		if err != nil {
			t.Fatalf("epochs=%d: %v", epochs, err)
		}
		base := groups[recoverable[0]].Engine(0).Store()
		for _, kind := range recoverable[1:] {
			if st := groups[kind].Engine(0).Store(); !base.Equal(st) {
				t.Errorf("epochs=%d: %v and %v disagree: %v", epochs, recoverable[0], kind, base.Diff(st, 3))
			}
		}
		for _, g := range groups {
			closeGroup(g)
		}
	}
}

// TestSinkContract pins what a sink is promised, for every recoverable
// mechanism: one sink installed on a group and on the group GroupRecover
// rebuilds after a crash mid commit group sees epochs 1..8 once each, in
// order, and a recording ledger on it equals the oracle after three more
// epochs have run through the recovered group. The outputs it is handed
// are engine memory, recycled once the call returns: a sink that keeps the
// slices instead of copying them no longer matches the oracle.
func TestSinkContract(t *testing.T) {
	const crashAfter = 5
	for _, kind := range recoverable {
		cfg := Config{Kind: kind, NewGen: func() workload.Generator { return fttest.GSGen(67) }, Epochs: 8}
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		ref, err := buildRef(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		ledger := &engine.Ledger{}
		var kept [][]types.Output
		sink := func(_ int, ep uint64, outs []types.Output) {
			ledger.Sink(ep, outs)
			kept = append(kept, outs)
		}
		devs := newBases(&cfg)
		g, err := shard.NewGroup(groupConfig(&cfg, ref.app, devs, sink))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Run(ref.batches[:crashAfter]); err != nil {
			t.Fatal(err)
		}
		g.Crash()
		g2, _, err := recoverGroup(&cfg, ref, ref.app, devs, sink)
		if err != nil {
			t.Fatalf("%v: recover: %v", kind, err)
		}
		if err := g2.Run(ref.batches[crashAfter:cfg.Epochs]); err != nil {
			t.Fatal(err)
		}
		closeGroup(g2)
		// Epoch 8 is a snapshot marker, so every mechanism has released it all.
		if len(ledger.Epochs) != cfg.Epochs {
			t.Fatalf("%v: sink saw epochs %v, want 1..%d", kind, ledger.Epochs, cfg.Epochs)
		}
		if err := ref.orc.CheckOutputs(0, uint64(cfg.Epochs), ledger, g2.Engine(0)); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		aliased := &engine.Ledger{Epochs: ledger.Epochs, Outputs: slices.Concat(kept...)}
		if ref.orc.CheckOutputs(0, uint64(cfg.Epochs), aliased, g2.Engine(0)) == nil {
			t.Fatalf("%v: the outputs a sink kept without copying still match the oracle; the engine does not recycle them", kind)
		}
	}
}

// TestDoubleCrash exercises repeated failures of one group: crash cleanly
// after epoch 5, recover, process one more epoch, crash again, recover, and
// finish the run. A clean crash loses nothing: the crashed group refuses
// work, each recovery resumes exactly at the crash epoch — on one shard
// replaying exactly the events since the snapshot — and the run ends
// oracle-equal with every output delivered once. This stresses the rebuilt
// runtime state of the dependency-tracking mechanisms; the one-shard group
// runs all three workloads, the two-shard group the write-local one.
func TestDoubleCrash(t *testing.T) {
	gens := map[string]func() workload.Generator{
		"SL": func() workload.Generator { return fttest.SLGen(73) },
		"GS": func() workload.Generator { return fttest.GSGen(73) },
		"TP": func() workload.Generator { return fttest.TPGen(73) },
	}
	cases := []struct {
		app    string
		shards int
	}{{"SL", 1}, {"GS", 1}, {"TP", 1}, {"GS", 2}}
	for _, c := range cases {
		for _, kind := range recoverable {
			name := c.app + "/" + kind.String()
			if c.shards > 1 {
				name += fmt.Sprintf("/shards=%d", c.shards)
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := Config{Kind: kind, NewGen: gens[c.app], Epochs: 12, Shards: c.shards}
				if err := cfg.normalize(); err != nil {
					t.Fatal(err)
				}
				ref, err := buildRef(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				devs := newBases(&cfg)
				ledgers := make(shard.Ledgers, cfg.Shards)
				g, err := shard.NewGroup(groupConfig(&cfg, ref.app, devs, ledgers.Sink))
				if err != nil {
					t.Fatal(err)
				}
				for _, crashAt := range []uint64{5, 6} {
					if err := g.Run(ref.batches[g.Epoch():crashAt]); err != nil {
						t.Fatal(err)
					}
					g.Crash()
					if err := g.ProcessEpoch(ref.batches[crashAt]); !errors.Is(err, shard.ErrCrashed) {
						t.Fatalf("crashed group accepted work: %v", err)
					}
					var rep *shard.GroupReport
					if g, rep, err = recoverGroup(&cfg, ref, ref.app, devs, ledgers.Sink); err != nil {
						t.Fatal(err)
					}
					if rep.Target != crashAt {
						t.Fatalf("crash after epoch %d recovered to epoch %d", crashAt, rep.Target)
					}
					r := rep.Reports[0]
					if want := int(crashAt-r.SnapshotEpoch) * cfg.EpochSize; cfg.Shards == 1 && r.EventsReplayed != want {
						t.Errorf("crash after epoch %d replayed %d events, want %d (snapshot at %d)",
							crashAt, r.EventsReplayed, want, r.SnapshotEpoch)
					}
				}
				defer closeGroup(g)
				if err := g.Run(ref.batches[g.Epoch():cfg.Epochs]); err != nil {
					t.Fatal(err)
				}
				if err := ref.check(&cfg, g, ledgers, uint64(cfg.Epochs)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
