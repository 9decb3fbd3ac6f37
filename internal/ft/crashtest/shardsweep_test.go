package crashtest

import (
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/fttest"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/workload"
)

// shardKinds are the mechanisms the sharded sweep covers — all five
// recoverable ones (NAT persists nothing; its group contract is pinned by
// TestShardSweepNAT).
var shardKinds = []ftapi.Kind{ftapi.CKPT, ftapi.WAL, ftapi.DL, ftapi.LV, ftapi.MSR}

// shardSweepConfig is the compact sharded run: Grep&Sum (write-local by
// construction; StreamLedger's cross-shard transfers are rejected by the
// barrier and covered by the shard package's locality test).
func shardSweepConfig(kind ftapi.Kind, shards int, mode storage.FaultMode) Config {
	return Config{
		Kind:     kind,
		NewGen:   func() workload.Generator { return fttest.GSGen(43) },
		Shards:   shards,
		Mode:     mode,
		Continue: true,
	}
}

// TestShardSweepAllMechanisms is the sharded crash-point sweep: for each
// fan-out and mechanism, enumerate every durable write across every shard
// device and the coordinator's frontier log, kill that device there,
// recover the whole group in parallel, and verify oracle-equivalent state
// and exactly-once outputs per shard and globally.
func TestShardSweepAllMechanisms(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sharded sweep")
	}
	for _, shards := range []int{2, 4} {
		for _, kind := range shardKinds {
			res, err := Sweep(shardSweepConfig(kind, shards, storage.FailStop))
			if err != nil {
				t.Fatalf("%v shards=%d: %v", kind, shards, err)
			}
			if res.Sites() == 0 || res.Runs == 0 {
				t.Fatalf("%v shards=%d: empty sweep (%d sites, %d runs)", kind, shards, res.Sites(), res.Runs)
			}
			for _, f := range res.Failures {
				t.Errorf("%v shards=%d: %v", kind, shards, f)
			}
			t.Logf("%v shards=%d: %d sites, %d runs, %d failures", kind, shards, res.Sites(), res.Runs, len(res.Failures))
		}
	}
}

// TestShardSweepTornAndDropped sweeps the byte-level fault flavours at the
// smaller fan-out: torn frontier/input/log tails and dropped tails must
// all recover like fail-stop does.
func TestShardSweepTornAndDropped(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sharded sweep")
	}
	for _, mode := range []storage.FaultMode{storage.TornWrite, storage.DroppedTail} {
		for _, kind := range []ftapi.Kind{ftapi.CKPT, ftapi.WAL, ftapi.DL, ftapi.LV} {
			res, err := Sweep(shardSweepConfig(kind, 2, mode))
			if err != nil {
				t.Fatalf("%v under %v: %v", kind, mode, err)
			}
			for _, f := range res.Failures {
				t.Errorf("%v under %v: %v", kind, mode, f)
			}
		}
	}
}

// TestShardSweepSampled is the race-detector-friendly slice of the sweep:
// every 5th site, one fan-out, two mechanisms. CI runs this under -race.
func TestShardSweepSampled(t *testing.T) {
	for _, kind := range []ftapi.Kind{ftapi.WAL, ftapi.CKPT} {
		cfg := shardSweepConfig(kind, 2, storage.FailStop)
		cfg.SampleEvery = 5
		res, err := Sweep(cfg)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Runs == 0 {
			t.Fatalf("%v: sampled sweep ran nothing", kind)
		}
		for _, f := range res.Failures {
			t.Errorf("%v: %v", kind, f)
		}
	}
}

// TestShardSweepNAT pins the native-execution contract on one and two
// shards: the group runs and matches its oracle fault-free, state and
// outputs (Enumerate's sanity pass), but persists nothing to recover from.
func TestShardSweepNAT(t *testing.T) {
	for _, shards := range []int{1, 2} {
		sites, err := Enumerate(shardSweepConfig(ftapi.NAT, shards, storage.FailStop))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		// NAT persists nothing durable on shard devices, so only the
		// coordinator's frontier log has write sites.
		for name, s := range sites {
			if name != "coord" && len(s) != 0 {
				t.Fatalf("shards=%d: NAT wrote %d durable records on %s", shards, len(s), name)
			}
		}
		if len(sites["coord"]) == 0 {
			t.Fatalf("shards=%d: coordinator wrote no frontier records", shards)
		}
	}
}
