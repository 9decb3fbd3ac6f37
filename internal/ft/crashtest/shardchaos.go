package crashtest

import (
	"fmt"
	"time"

	"morphstreamr/internal/engine"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
)

// ShardChaosConfig scripts the single-shard-kill cell: one shard's device
// suffers a fatal write outage under sustained group ingestion; the other
// shards keep committing while the coordinator heals the dead shard in
// place and completes the interrupted barrier.
type ShardChaosConfig struct {
	Config
	// Shards is the group fan-out. Zero means 2.
	Shards int
	// KillShard is the shard whose device fails.
	KillShard int
	// FaultAt is the 0-based write index on that device where the fatal
	// outage strikes (one write fails; the outage has passed by the time
	// the heal's recovery writes). Zero means the midpoint of the shard's
	// own write sequence, enumerated from a fault-free run of the same
	// config — mid-run at every run length, where a constant index is past
	// the end of a short run and never fires.
	FaultAt int
}

// ShardChaosOutcome reports what the single-shard-kill cell observed.
type ShardChaosOutcome struct {
	// KilledShard and FailedEpoch locate the injected death.
	KilledShard int
	FailedEpoch uint64
	// Cause is the supervisor classification of the surfaced error.
	Cause string
	// MTTR is the group's heal time: shard death detected to the barrier
	// completed and the group live again (the group MTTR of
	// BENCH_chaos.json's shard-kill entries).
	MTTR time.Duration
	// SurvivorCommits is the committed-epoch vector at detection: the
	// survivors' punctuation frontiers, proving they kept committing while
	// one shard was dead.
	SurvivorCommits []uint64
	// Epochs is the group epoch reached after the full run (fault epoch
	// included — the heal completes it, nothing is skipped).
	Epochs uint64
	// Report is the dead shard's recovery report.
	Report *engine.RecoveryReport
	// Incident is the health-log record of the heal.
	Incident metrics.Incident
}

// ShardChaos runs the single-shard-kill cell and verifies the run end to
// end against the sharded oracle: every shard's state, each shard's
// exactly-once application outputs (gap-free for the survivors — nothing
// delivered twice, nothing lost across the dead shard's heal), and the
// cross-shard agreement that routing surfaced every event on exactly one
// shard.
func ShardChaos(cc ShardChaosConfig) (*ShardChaosOutcome, error) {
	scfg := ShardConfig{Config: cc.Config, Shards: cc.Shards}
	if err := scfg.normalize(); err != nil {
		return nil, err
	}
	if cc.KillShard < 0 || cc.KillShard >= scfg.Shards {
		return nil, fmt.Errorf("crashtest: KillShard %d out of range for %d shards", cc.KillShard, scfg.Shards)
	}
	ref, err := buildShardRef(&scfg)
	if err != nil {
		return nil, err
	}
	if cc.FaultAt <= 0 {
		sites, err := shardEnumerate(&scfg, ref)
		if err != nil {
			return nil, err
		}
		cc.FaultAt = len(sites[deviceName(scfg.Shards, cc.KillShard)]) / 2
	}

	devs := make([]storage.Device, scfg.Shards)
	for i := range devs {
		devs[i] = storage.NewMem()
	}
	st := storage.NewStack(storage.NewMem()).WithFlaky()
	st.Flaky.AddOutage(cc.FaultAt, 1)
	devs[cc.KillShard] = st.MustBuild()

	health := metrics.NewHealth()
	g, err := shard.NewGroup(shard.Config{
		GroupShape: types.GroupShape{RunShape: scfg.RunShape, Shards: scfg.Shards},
		App:        ref.app,
		Kind:       scfg.Kind,
		Devices:    devs,
		CoordDev:   storage.NewMem(),
		Health:     health,
	})
	if err != nil {
		return nil, err
	}

	out := &ShardChaosOutcome{KilledShard: cc.KillShard}
	source := types.BatchSource(ref.batches)
	for e := 0; e < scfg.Epochs; e++ {
		err := g.ProcessEpoch(ref.batches[e])
		if err == nil {
			continue
		}
		if out.FailedEpoch != 0 {
			return nil, fmt.Errorf("crashtest: second failure at epoch %d: %w", e+1, err)
		}
		out.FailedEpoch = uint64(e + 1)
		out.SurvivorCommits = g.CommittedVector()
		rep, healErr := g.HealShard(err, source)
		if healErr != nil {
			return nil, fmt.Errorf("crashtest: heal after %w: %v", err, healErr)
		}
		out.Report = rep
	}
	if out.FailedEpoch == 0 {
		return nil, fmt.Errorf("crashtest: outage at write %d never killed shard %d", cc.FaultAt, cc.KillShard)
	}
	out.Epochs = g.Epoch()
	if out.Epochs != uint64(scfg.Epochs) {
		return nil, fmt.Errorf("crashtest: group reached epoch %d of %d despite the heal", out.Epochs, scfg.Epochs)
	}

	incidents := health.Incidents()
	if len(incidents) != 1 || !incidents[0].Healed {
		return nil, fmt.Errorf("crashtest: expected one healed incident, health log has %+v", incidents)
	}
	out.Incident = incidents[0]
	out.Cause = incidents[0].Cause
	out.MTTR = incidents[0].MTTR

	// Full oracle verification at the end of the run.
	last := uint64(scfg.Epochs)
	global := make(map[uint64]int)
	for s := 0; s < scfg.Shards; s++ {
		if err := ref.orc.CheckState(s, last, g.Engine(s).Store()); err != nil {
			return nil, err
		}
		union := shard.RealOutputs(g.DeliveredUnion(s))
		pending := g.Engine(s).PendingOutputsMatching(func(o types.Output) bool {
			return !shard.IsReplication(o)
		})
		if err := ref.orc.CheckOutputs(s, last, union, pending); err != nil {
			return nil, err
		}
		for _, o := range union {
			if prev, dup := global[o.EventSeq]; dup {
				return nil, fmt.Errorf("crashtest: event %d surfaced on shard %d and shard %d", o.EventSeq, prev, s)
			}
			global[o.EventSeq] = s
		}
	}
	return out, nil
}
