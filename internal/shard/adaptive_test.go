package shard_test

import (
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/types"
)

// TestAdaptiveGroupMatchesOracle: the adaptive controller coexists with
// the sharded coordinator — every shard engine morphs independently over a
// four-worker ladder, yet the group still matches the sharded oracle and
// commits in lockstep. The shard protocol's determinism rests on the
// durable-write-neutrality of morphs, the invariant the engine-level
// transcript pin checks against AdaptiveForce{steal, Workers} and
// TestGoldenDurableTranscript pins byte for byte.
func TestAdaptiveGroupMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		app, batches := gsRun(9, 6, 24)
		shape := types.GroupShape{
			RunShape: types.RunShape{Workers: 4, CommitEvery: 2, SnapshotEvery: 4},
			Shards:   n,
		}
		g, err := shard.NewGroup(shard.Config{
			GroupShape: shape, App: app, Kind: ftapi.WAL,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Run(batches); err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		for _, committed := range g.CommittedVector() {
			if committed != 6 {
				t.Fatalf("shards=%d: committed vector %v, want all 6", n, g.CommittedVector())
			}
		}
		orc, err := shard.NewGroupOracle(app, n, batches)
		if err != nil {
			t.Fatal(err)
		}
		delivered := make([][]types.Output, n)
		for s := 0; s < n; s++ {
			delivered[s] = g.DeliveredUnion(s)
		}
		verifyAgainstOracle(t, g, orc, delivered)
	}
}
