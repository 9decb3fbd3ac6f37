package shard

import (
	"errors"
	"fmt"
	"time"

	"morphstreamr/internal/engine"
	"morphstreamr/internal/metrics"
)

// HealShard recovers a single dead shard in place after ProcessEpoch
// returned a *ShardError, without restarting the survivors — the
// coordinator-level analogue of the supervisor's in-process heal.
//
// When one shard fails mid-epoch the survivors have already completed the
// epoch (their write sets are captured and their commit markers fired;
// the concurrent barrier only joins afterwards), so the group is one dead
// engine away from completing the interrupted barrier. HealShard:
//
//  1. banks the dead engine's delivered ledger (its outputs left the
//     building; exactly-once accounting must keep them);
//  2. recovers the shard from its own device with stock engine.Recover —
//     a transient outage (storage.Flaky) has passed by retry time, a
//     persistent fault surfaces as a failed heal;
//  3. re-feeds the interrupted epoch if the mechanism did not already
//     replay it, using the in-memory replication deltas the live epoch
//     was fed with;
//  4. completes the interrupted barrier and resumes, recording the
//     incident (classification, MTTR) in the group's health log.
//
// The error must be the *ShardError the failed ProcessEpoch returned, and
// source must cover the interrupted epoch.
func (g *Group) HealShard(procErr error, source Source) (*engine.RecoveryReport, error) {
	var serr *ShardError
	if !errors.As(procErr, &serr) {
		return nil, fmt.Errorf("shard: HealShard wants a *ShardError, got %w", procErr)
	}
	if !g.crashed {
		return nil, errors.New("shard: HealShard on a live group")
	}
	if serr.Shard < 0 || serr.Shard >= len(g.shards) {
		return nil, fmt.Errorf("shard: HealShard: no shard %d", serr.Shard)
	}
	detected := time.Now()
	cause := engine.Classify(serr.Err)
	ep := g.epoch + 1
	events, ok := source(ep)
	if !ok {
		return nil, fmt.Errorf("shard: HealShard: source has no batch for interrupted epoch %d", ep)
	}

	s := g.shards[serr.Shard]
	s.banked = append(s.banked, s.eng.DeliveredChunks()...)
	s.eng.Crash()

	fail := func(err error) (*engine.RecoveryReport, error) {
		g.cfg.Health.Record(metrics.Incident{
			Cause: cause, Err: serr.Err.Error(), DetectedAt: detected,
			MTTR: time.Since(detected), Healed: false,
		})
		return nil, err
	}

	eng, rep, err := engine.Recover(g.engineConfig(s))
	if err != nil {
		return fail(fmt.Errorf("shard: heal shard %d: %w", serr.Shard, err))
	}
	s.eng = eng

	switch rep.LastEpoch {
	case ep:
		// The shard's durability gate for the interrupted epoch fired
		// before it died (e.g. the snapshot append failed after the commit
		// marker); recovery replayed it — nothing to re-feed.
	case ep - 1:
		// The interrupted epoch never completed on this shard: re-feed it
		// through the live pipeline with the same replication payload the
		// failed attempt was fed.
		if err := s.stageReplication(g.lastDeltas, g.minSeqFor(events)); err != nil {
			return fail(err)
		}
		batch := append(s.reps, g.subBatch(events, serr.Shard)...)
		if err := s.eng.ProcessEpoch(batch); err != nil {
			return fail(fmt.Errorf("shard: heal shard %d: re-feed epoch %d: %w", serr.Shard, ep, err))
		}
	default:
		return fail(fmt.Errorf("shard: heal shard %d: recovered to epoch %d, interrupted epoch was %d", serr.Shard, rep.LastEpoch, ep))
	}

	// The failing ProcessEpoch bailed before running the barrier; every
	// shard is now at ep, so finish the round.
	if err := g.completeBarrier(ep); err != nil {
		return fail(fmt.Errorf("shard: heal shard %d: complete barrier %d: %w", serr.Shard, ep, err))
	}
	g.stats = append(g.stats, EpochStat{
		Epoch: ep, Events: len(events), ShardWalls: make([]time.Duration, len(g.shards)),
	})
	g.crashed = false
	g.cfg.Health.Record(metrics.Incident{
		Cause: cause, Err: serr.Err.Error(), DetectedAt: detected,
		MTTR: time.Since(detected), RecoveredEpoch: ep, Healed: true,
	})
	if reg := g.cfg.Obs.Registry(); reg != nil {
		reg.Counter("group.heals").Inc()
		reg.Histogram("group.heal_seconds").ObserveSince(detected)
	}
	return rep, nil
}
