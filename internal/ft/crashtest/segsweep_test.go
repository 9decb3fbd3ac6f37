package crashtest

import (
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/fttest"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// segSegmentBytes is small enough that every log spans many segments per
// run, so torn writes land inside and astride sealed segments and GC
// releases real segments at every snapshot.
const segSegmentBytes = 128

// TestSweepSegStore runs the exhaustive crash-point sweep with the bounded
// segment store as the base medium: every durable write site of every
// mechanism, under every fault flavour, must recover to oracle-equivalent
// state with exactly-once outputs — including writes that seal segments
// mid-record and the release sites that pop the segment index.
func TestSweepSegStore(t *testing.T) {
	for _, kind := range recoverable {
		for _, mode := range modes {
			kind, mode := kind, mode
			t.Run(kind.String()+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				sweep(t, Config{
					Kind:         kind,
					NewGen:       func() workload.Generator { return fttest.SLGen(41) },
					Mode:         mode,
					Continue:     true,
					Store:        "seg",
					SegmentBytes: segSegmentBytes,
				})
			})
		}
	}
	// Two shards: every shard's device and the coordinator's run on the
	// segment store, and torn writes land in each of them.
	t.Run("shards=2/"+storage.TornWrite.String(), func(t *testing.T) {
		t.Parallel()
		sweep(t, Config{
			Kind:         ftapi.WAL,
			NewGen:       func() workload.Generator { return fttest.GSGen(43) },
			Shards:       2,
			Mode:         storage.TornWrite,
			Continue:     true,
			Store:        "seg",
			SegmentBytes: segSegmentBytes,
		})
	})
}

// TestSweepSegIncremental sweeps the incremental-checkpoint shape on the
// segment store: snapshots every 2 epochs with a full base only every
// second snapshot, so the run interleaves base blobs, delta appends to the
// checkpoint log, and the releases that fold composed deltas away. Every
// crash point — including a torn delta append — must recover exactly.
func TestSweepSegIncremental(t *testing.T) {
	for _, kind := range recoverable {
		for _, mode := range []storage.FaultMode{storage.FailStop, storage.TornWrite} {
			kind, mode := kind, mode
			t.Run(kind.String()+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				sweep(t, Config{
					Kind:   kind,
					NewGen: func() workload.Generator { return fttest.SLGen(67) },
					Epochs: 10, EpochSize: 16,
					RunShape: types.RunShape{
						Workers: 2, CommitEvery: 2, SnapshotEvery: 2, SnapshotBase: 2,
					},
					Mode:         mode,
					Continue:     true,
					Store:        "seg",
					SegmentBytes: segSegmentBytes,
				})
			})
		}
	}
}

// segCrash is the sentinel the hook panics with to stop the engine at an
// exact point inside a segment release.
type segCrash struct{}

// TestSegStoreCrashInsideRelease crashes the engine precisely between the
// two halves of a segment release — after the index update ("release-index",
// the sealed index popped but no slab recycled) and after the first slab
// reuse ("segment-reuse") — and verifies recovery from the store in exactly
// that state. This is the crash window a flat truncate never has: the index
// and the segment ring disagree transiently, and recovery must only depend
// on what the index still covers.
func TestSegStoreCrashInsideRelease(t *testing.T) {
	for _, event := range []string{"release-index", "segment-reuse"} {
		for _, kind := range recoverable {
			event, kind := event, kind
			t.Run(event+"/"+kind.String(), func(t *testing.T) {
				t.Parallel()
				crashes := 0
				for k := 1; k <= 64; k++ {
					crashed, err := runSegHookCrash(kind, event, k)
					if err != nil {
						t.Fatalf("crash at %s #%d: %v", event, k, err)
					}
					if !crashed {
						break // the run fires the event fewer than k times
					}
					crashes++
				}
				if crashes == 0 {
					t.Fatalf("the run never fired %q; the crash window was not exercised", event)
				}
			})
		}
	}
}

// runSegHookCrash runs the seeded workload on a one-shard group whose shard
// and coordinator devices are bare segment stores with a hook that kills
// the group at the k-th firing of the named seam event on either (the
// coordinator's frontier log is released too), then recovers the group from
// its devices and checks state and exactly-once outputs against the oracle. A
// one-shard group runs its engine on the caller's goroutine, so the hook's
// panic reaches the caller. Returns false when the run completes before the
// k-th firing (the sweep over k is exhausted).
func runSegHookCrash(kind ftapi.Kind, event string, k int) (bool, error) {
	cfg := Config{
		Kind:         kind,
		NewGen:       func() workload.Generator { return fttest.SLGen(41) },
		Store:        "seg",
		SegmentBytes: segSegmentBytes,
	}
	if err := cfg.normalize(); err != nil {
		return false, err
	}
	ref, err := buildRef(&cfg)
	if err != nil {
		return false, err
	}
	devs := newBases(&cfg)
	fired := 0
	for _, d := range devs {
		d.(*storage.SegStore).SetHook(func(ev, _ string) {
			if ev != event {
				return
			}
			if fired++; fired == k {
				panic(segCrash{})
			}
		})
	}
	ledgers := make(shard.Ledgers, 1)
	g, err := shard.NewGroup(groupConfig(&cfg, ref.app, devs, ledgers.Sink))
	if err != nil {
		return false, err
	}
	crashed := false
	err = func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(segCrash); !ok {
					panic(r)
				}
				crashed = true
			}
		}()
		return g.Run(ref.batches[:cfg.Epochs])
	}()
	if !crashed {
		// Fault-free completion: sanity-check it, then report the sweep done.
		defer closeGroup(g)
		if err != nil {
			return false, err
		}
		return false, ref.check(&cfg, g, nil, uint64(cfg.Epochs))
	}
	g.Crash()
	for _, d := range devs {
		d.(*storage.SegStore).SetHook(nil)
	}

	g2, report, err := recoverGroup(&cfg, ref, ref.app, devs, ledgers.Sink)
	if err != nil {
		return true, err
	}
	defer closeGroup(g2)
	return true, ref.check(&cfg, g2, ledgers, report.Target)
}
