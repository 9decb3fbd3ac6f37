package crashtest

import (
	"slices"
	"testing"

	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/fttest"
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
	if len(res.Sites) == 0 || res.Runs != len(res.Sites) {
		t.Fatalf("swept %d runs over %d sites; expected one run per site", res.Runs, len(res.Sites))
	}
	// An untargeted sweep must have enumerated every write category the
	// run performs: input appends, the snapshot blob, GC truncations, and
	// (for log-based schemes) group-commit appends.
	if cfg.Target == "" {
		ops := map[string]bool{}
		for _, s := range res.Sites {
			ops[s.Op+":"+s.Name] = true
		}
		want := []string{"append:" + storage.LogInput, "blob:" + storage.BlobSnapshot, "release:" + storage.LogInput}
		if cfg.Kind != ftapi.CKPT {
			want = append(want, "append:"+storage.LogFT)
		}
		if cfg.SnapshotBase > 1 {
			want = append(want, "append:"+storage.LogCkpt) // incremental deltas
		}
		for _, w := range want {
			if !ops[w] {
				t.Errorf("sweep never crossed a %q write; enumeration incomplete (sites: %v)", w, res.Sites)
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
			if len(res.Sites) == 0 {
				t.Fatalf("%v wrote nothing to the FT log; targeted sweep is vacuous", kind)
			}
			for _, s := range res.Sites {
				if s.Name != storage.LogFT {
					t.Fatalf("targeted sweep leaked site %v", s)
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
// same crash boundary), all five mechanisms must recover the identical
// store — each equals the oracle, and they pairwise agree.
func TestCrossMechanismAgreement(t *testing.T) {
	for _, epochs := range []int{3, 4, 6} { // mid-group, snapshot boundary, full run
		cfg := Config{
			NewGen: func() workload.Generator { return fttest.SLGen(59) },
			Epochs: epochs,
		}
		engines, orc, err := BoundaryStores(cfg, recoverable)
		if err != nil {
			t.Fatal(err)
		}
		for kind, e := range engines {
			if err := orc.CheckState(0, uint64(epochs), e.Store()); err != nil {
				t.Errorf("epochs=%d %v: %v", epochs, kind, err)
			}
		}
		base := engines[recoverable[0]]
		for _, kind := range recoverable[1:] {
			if !base.Store().Equal(engines[kind].Store()) {
				t.Errorf("epochs=%d: %v and %v disagree: %v", epochs, recoverable[0], kind,
					base.Store().Diff(engines[kind].Store(), 3))
			}
		}
	}
}

// TestSinkContract pins what a sink is promised, for every recoverable
// mechanism: one sink installed on an engine and on the engine Recover
// rebuilds after a crash mid commit group sees epochs 1..8 once each, in
// order, and a recording ledger on it equals the oracle after three more
// epochs have run through the recovered engine. The outputs it is handed
// are engine memory, recycled once the call returns: a sink that keeps the
// slices instead of copying them no longer matches the oracle.
func TestSinkContract(t *testing.T) {
	const crashAfter = 5
	for _, kind := range recoverable {
		cfg := Config{Kind: kind, NewGen: func() workload.Generator { return fttest.GSGen(67) }, Epochs: 8}
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		ref, err := buildRef(&cfg, 1, cfg.Epochs)
		if err != nil {
			t.Fatal(err)
		}
		ledger := &engine.Ledger{}
		var kept [][]types.Output
		sink := func(ep uint64, outs []types.Output) {
			ledger.Sink(ep, outs)
			kept = append(kept, outs)
		}
		dev := storage.NewMem()
		gen := cfg.NewGen()
		e, err := engine.New(engineConfig(&cfg, dev, gen.App(), sink))
		if err != nil {
			t.Fatal(err)
		}
		if err := runEpochs(e, ref.batches[:crashAfter]); err != nil {
			t.Fatal(err)
		}
		e.Crash()
		e2, _, err := engine.Recover(engineConfig(&cfg, dev, gen.App(), sink))
		if err != nil {
			t.Fatalf("%v: recover: %v", kind, err)
		}
		if err := runEpochs(e2, ref.batches[crashAfter:]); err != nil {
			t.Fatal(err)
		}
		e2.Close()
		// Epoch 8 is a snapshot marker, so every mechanism has released it all.
		if len(ledger.Epochs) != cfg.Epochs {
			t.Fatalf("%v: sink saw epochs %v, want 1..%d", kind, ledger.Epochs, cfg.Epochs)
		}
		if err := ref.orc.CheckOutputs(0, uint64(cfg.Epochs), ledger, e2); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		aliased := &engine.Ledger{Epochs: ledger.Epochs, Outputs: slices.Concat(kept...)}
		if ref.orc.CheckOutputs(0, uint64(cfg.Epochs), aliased, e2) == nil {
			t.Fatalf("%v: the outputs a sink kept without copying still match the oracle; the engine does not recycle them", kind)
		}
	}
}
