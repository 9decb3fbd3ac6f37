package shard_test

import (
	"bytes"
	"reflect"
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
)

// runOnce drives one full group run and returns the observables
// determinism is asserted over: the committed-epoch vector and the
// coordinator's frontier log bytes (the byte-deterministic encoding of every
// barrier's per-shard write-set deltas).
func runOnce(t *testing.T, seed int64, shards int) ([]uint64, [][]byte) {
	t.Helper()
	app, batches := gsRun(seed, 6, 24)
	coord := storage.NewMem()
	g, err := shard.NewGroup(shard.Config{GroupShape: sweepShape(shards), App: app, Kind: ftapi.WAL, CoordDev: coord})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(batches); err != nil {
		t.Fatal(err)
	}
	recs, err := coord.ReadLog(shard.LogFrontier)
	if err != nil {
		t.Fatal(err)
	}
	frontier := make([][]byte, len(recs))
	for i, rec := range recs {
		frontier[i] = rec.Payload
	}
	return g.CommittedVector(), frontier
}

// TestCrossShardDeterminism reruns the same seeded workload and requires
// bit-identical punctuation history: every shard commits the same epochs,
// and the coordinator's frontier log — the durable transcript of every
// barrier's cross-shard deltas — is byte-for-byte identical, even though
// the shards of each epoch execute concurrently. Run under -race in CI,
// this is also the data-race probe for the barrier protocol.
func TestCrossShardDeterminism(t *testing.T) {
	for _, shards := range []int{2, 4} {
		commitsA, frontierA := runOnce(t, 13, shards)
		commitsB, frontierB := runOnce(t, 13, shards)
		if !reflect.DeepEqual(commitsA, commitsB) {
			t.Fatalf("shards=%d: committed vectors diverge: %v vs %v", shards, commitsA, commitsB)
		}
		if len(frontierA) != len(frontierB) {
			t.Fatalf("shards=%d: frontier logs have %d vs %d records", shards, len(frontierA), len(frontierB))
		}
		for i := range frontierA {
			if !bytes.Equal(frontierA[i], frontierB[i]) {
				t.Fatalf("shards=%d: frontier record %d differs between identical runs", shards, i)
			}
		}
	}
}

// TestReplicationSequencing pins the replication event contract: sequences
// sit strictly below the epoch's minimum real sequence, chunks respect the
// operation-index budget, and the coordinator rejects input events that
// claim the reserved kind.
func TestReplicationSequencing(t *testing.T) {
	app, batches := gsRun(17, 4, 24)
	ledgers := make(shard.Ledgers, 2)
	g, err := shard.NewGroup(shard.Config{
		GroupShape: sweepShape(2), App: app, Kind: ftapi.DL, Sink: ledgers.Sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(batches); err != nil {
		t.Fatal(err)
	}
	// Replication acknowledgements reach the sink (sequences
	// deliberately reuse the space below each epoch's real events, which
	// is why every verifier filters them before sequence-keyed dedup).
	// A 2-shard GS run must actually replicate, and filtering must leave
	// each shard's application stream duplicate-free.
	repAcks := 0
	for s := 0; s < g.Shards(); s++ {
		seen := make(map[uint64]bool)
		for _, out := range ledgers[s].Outputs {
			if shard.IsReplication(out) {
				repAcks++
				continue
			}
			if seen[out.EventSeq] {
				t.Fatalf("shard %d: real output %d delivered twice", s, out.EventSeq)
			}
			seen[out.EventSeq] = true
		}
	}
	if repAcks == 0 {
		t.Fatal("no replication events flowed in a 2-shard GS run")
	}

	if err := g.ProcessEpoch([]types.Event{{Seq: 999, Kind: shard.KindReplicate, Keys: []types.Key{{}}}}); err == nil {
		t.Fatal("coordinator accepted an input event with the reserved replication kind")
	}
}
