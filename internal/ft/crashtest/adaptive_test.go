package crashtest

import (
	"reflect"
	"testing"

	"morphstreamr/internal/adaptive"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/fttest"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// stealAt pins an engine on the work-stealing pool at w workers.
func stealAt(w int) *adaptive.Strategy {
	return &adaptive.Strategy{Impl: adaptive.ImplSteal, Workers: w}
}

// TestSweepAdaptive: the exhaustive crash-point sweep held on the
// work-stealing pool. Every other sweep in this package leaves the strategy
// to the engine's controller, which on a small host settles on sequential
// execution within a few epochs; this one pins {steal, Workers} on the
// crashed and the recovered engine alike, for every mechanism and fault
// flavour, so the race detector still crosses the parallel scheduler under
// crash injection — and the sweep's verification checks every post-recovery
// incarnation ran on it.
func TestSweepAdaptive(t *testing.T) {
	shape := DefaultSweepShape()
	shape.Workers = 4
	for _, kind := range recoverable {
		for _, mode := range modes {
			kind, mode := kind, mode
			t.Run(kind.String()+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				sweep(t, Config{
					Kind:     kind,
					NewGen:   func() workload.Generator { return fttest.SLGen(43) },
					RunShape: shape,
					force:    stealAt(shape.Workers),
					Mode:     mode,
					Continue: true,
				})
			})
		}
	}
}

// TestAdaptiveSweepMatchesStatic: the site enumeration of a controller-
// driven run is identical to that of the same shape pinned on the pool at
// full width — same writes, same order, same targets. A durable-write count
// or reorder introduced by a morph would shift every later crash point and
// show up here before any recovery even runs.
func TestAdaptiveSweepMatchesStatic(t *testing.T) {
	driven := Config{
		Kind:     logBased[0],
		NewGen:   func() workload.Generator { return fttest.SLGen(44) },
		Mode:     storage.FailStop,
		RunShape: types.RunShape{Workers: 4, CommitEvery: 2, SnapshotEvery: 4},
	}
	pinned := driven
	pinned.force = stealAt(4)

	sitesP, err := Enumerate(pinned)
	if err != nil {
		t.Fatal(err)
	}
	sitesD, err := Enumerate(driven)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sitesP, sitesD) {
		t.Fatalf("controller-driven run enumerates write sites %v, pinned %v", sitesD, sitesP)
	}
}

// TestShardSweepPinsEveryEngine: a pinned two-shard sweep runs every shard
// engine it verifies — the fault-free group's and, through its
// post-recovery epoch, each group GroupRecover rebuilds — on the forced
// strategy. The verification checks it, so a group that drops
// shard.Config.AdaptiveForce on the way to its engines fails every run.
func TestShardSweepPinsEveryEngine(t *testing.T) {
	res, err := Sweep(Config{
		Kind:        ftapi.WAL,
		NewGen:      func() workload.Generator { return fttest.GSGen(43) },
		RunShape:    types.RunShape{Workers: 4, CommitEvery: 2, SnapshotEvery: 4},
		Shards:      2,
		Mode:        storage.FailStop,
		Continue:    true,
		SampleEvery: 3,
		force:       stealAt(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs == 0 {
		t.Fatal("pinned sweep ran nothing")
	}
	for _, f := range res.Failures {
		t.Errorf("%v", f)
	}
}
