package crashtest

import (
	"testing"
	"time"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/fttest"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/workload"
)

// TestShardChaosSingleKill kills one shard's device under sustained
// ingestion for each recoverable mechanism: the survivors must keep
// committing, the coordinator must heal the dead shard in place, and the
// whole run must stay oracle-equivalent with gap-free exactly-once
// outputs on every shard.
func TestShardChaosSingleKill(t *testing.T) {
	for _, kind := range []ftapi.Kind{ftapi.CKPT, ftapi.WAL, ftapi.DL, ftapi.LV} {
		for _, kill := range []int{0, 2} {
			out, err := ShardChaos(ShardChaosConfig{
				Config: Config{
					Kind:   kind,
					NewGen: func() workload.Generator { return fttest.GSGen(43) },
				},
				Shards:    4,
				KillShard: kill,
				FaultAt:   8,
			})
			if err != nil {
				t.Fatalf("%v kill=%d: %v", kind, kill, err)
			}
			if out.Cause != "io-fatal" {
				t.Errorf("%v kill=%d: classified %q, want io-fatal", kind, kill, out.Cause)
			}
			if out.MTTR <= 0 {
				t.Errorf("%v kill=%d: zero MTTR", kind, kill)
			}
			if len(out.SurvivorCommits) != 4 {
				t.Fatalf("%v kill=%d: committed vector %v", kind, kill, out.SurvivorCommits)
			}
			// Survivors completed the interrupted epoch's processing; their
			// committed frontier is at most one commit interval behind it
			// and never behind the previous commit point.
			for s, committed := range out.SurvivorCommits {
				if s == kill {
					continue
				}
				if committed+2 < out.FailedEpoch {
					t.Errorf("%v kill=%d: survivor %d committed only through %d at a death in epoch %d",
						kind, kill, s, committed, out.FailedEpoch)
				}
			}
			t.Logf("%v kill=%d: died epoch %d, cause %s, MTTR %v, survivors %v",
				kind, kill, out.FailedEpoch, out.Cause, out.MTTR, out.SurvivorCommits)
		}
	}
}

// TestShardChaosDefaultFaultSiteFollowsRunLength pins the derived fault
// site: with FaultAt unset the shard must die strictly mid-run at every run
// length, including runs too short for any fixed write index to land in.
func TestShardChaosDefaultFaultSiteFollowsRunLength(t *testing.T) {
	for _, epochs := range []int{3, 6, 10} {
		out, err := ShardChaos(ShardChaosConfig{
			Config: Config{
				Kind:   ftapi.WAL,
				NewGen: func() workload.Generator { return fttest.GSGen(43) },
				Epochs: epochs,
			},
			Shards:    4,
			KillShard: 2,
		})
		if err != nil {
			t.Fatalf("epochs=%d: %v", epochs, err)
		}
		if out.FailedEpoch < 2 || out.FailedEpoch > uint64(epochs-1) {
			t.Errorf("epochs=%d: died in epoch %d, want strictly mid-run", epochs, out.FailedEpoch)
		}
	}
}

// TestShardChaosTransientIsInvisible pins the boundary between the retry
// layer and the heal path at group scale: wrap one shard's device in the
// retry policy and script a transient storm — the group must absorb it
// with no shard death at all.
func TestShardChaosTransientIsInvisible(t *testing.T) {
	scfg := ShardConfig{
		Config: Config{
			Kind:   ftapi.WAL,
			NewGen: func() workload.Generator { return fttest.GSGen(43) },
		},
		Shards: 2,
	}
	if err := scfg.normalize(); err != nil {
		t.Fatal(err)
	}
	ref, err := buildShardRef(&scfg)
	if err != nil {
		t.Fatal(err)
	}
	retry := storage.RetryPolicy{
		BaseBackoff: 200 * time.Microsecond,
		MaxBackoff:  2 * time.Millisecond,
		MaxAttempts: 5,
	}
	st := storage.NewStack(storage.NewMem()).WithFlaky().WithRetry(retry)
	st.Flaky.AddStorm(8, 2)
	devs := []storage.Device{st.MustBuild(), storage.NewMem()}
	g, err := newShardGroup(&scfg, ref, devs, storage.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(ref.batches[:scfg.Epochs]); err != nil {
		t.Fatalf("transient storm leaked through the retry layer: %v", err)
	}
	for s := 0; s < scfg.Shards; s++ {
		if err := ref.orc.CheckState(s, uint64(scfg.Epochs), g.Engine(s).Store()); err != nil {
			t.Fatal(err)
		}
	}
}
