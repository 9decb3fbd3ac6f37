package shard

import (
	"errors"
	"fmt"
	"time"

	"morphstreamr/internal/engine"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/vtime"
)

// Heal recovers the group after ProcessEpoch failed with procErr, re-feeding
// from src whatever the mechanisms did not replay, and returns where the
// group resumed: every epoch above rep.Target was lost and must be fed
// again. It is the one heal of a live group, a ladder of two rungs:
//
//  1. the shard rung: a *ShardError naming the only shard that failed heals
//     that shard in place (see healShard); the survivors keep their state
//     and the interrupted barrier completes;
//  2. the group rung: anything else, or a shard rung that failed, recovers
//     every shard in place from its own device with the body GroupRecover
//     runs at a cold start.
//
// Neither rung prices its recovery (see package vtime): a heal runs only the
// replay. Either way the failure is classified with engine.Classify
// and recorded as exactly one incident in the group's health log. A failed
// Heal leaves the group crashed; calling Heal again, with the error the
// failed one returned, is the retry. That error names no shard, so the
// retry takes the group rung: the failed attempt already left every shard
// crashed or half-recovered. The recovered engines release to the same
// Config.Sink the dead ones did, so no output needs carrying over. Heal
// runs on the feeding goroutine after ProcessEpoch returned, which it does
// only once every shard's epoch has returned: no write of a dead
// incarnation can still be in flight, so nothing needs fencing off.
func (g *Group) Heal(procErr error, src Source) (*GroupReport, error) {
	if !g.crashed {
		return nil, errors.New("shard: Heal on a live group")
	}
	inc := metrics.Incident{Cause: engine.Classify(procErr), Err: procErr.Error(), DetectedAt: time.Now()}
	var rep *GroupReport
	var err error
	var serr *ShardError
	if errors.As(procErr, &serr) {
		rep, err = g.healShard(serr.Shard, src)
	}
	if rep == nil {
		rep, err = g.healGroup(src)
	}
	inc.MTTR = time.Since(inc.DetectedAt)
	if err == nil {
		inc.RecoveredEpoch, inc.Healed = rep.Target, true
	}
	g.cfg.Health.Record(inc)
	if err != nil {
		return nil, fmt.Errorf("shard: heal after %s: %w", inc.Cause, err)
	}
	if reg := g.cfg.Obs.Registry(); reg != nil {
		reg.Counter("group.heals").Inc()
		reg.Histogram("group.heal_seconds").ObserveSince(inc.DetectedAt)
	}
	return rep, nil
}

// healShard is the shard rung: it recovers dead shard i in place without
// restarting the survivors.
//
// When one shard fails mid-epoch the survivors have already completed the
// epoch (their write sets are captured and their commit markers fired; the
// concurrent barrier only joins afterwards), so the group is one dead engine
// away from completing the interrupted barrier. healShard:
//
//  1. recovers the shard from its own device with stock engine.Recover — a
//     write storm that has passed by now costs nothing more, one still
//     raging fails the rung (and the host retries the heal);
//  2. re-feeds the interrupted epoch if the mechanism did not already replay
//     it, using the in-memory replication deltas the live epoch was fed with;
//  3. completes the interrupted barrier and resumes.
//
// src must cover the interrupted epoch.
func (g *Group) healShard(i int, src Source) (*GroupReport, error) {
	if i < 0 || i >= len(g.shards) {
		return nil, fmt.Errorf("no shard %d", i)
	}
	for j, err := range g.errs {
		if j != i && err != nil {
			return nil, fmt.Errorf("shard %d failed too", j)
		}
	}
	start := time.Now()
	ep := g.epoch + 1
	events, ok := src(ep)
	if !ok {
		return nil, fmt.Errorf("source has no batch for interrupted epoch %d", ep)
	}

	s := g.shards[i]
	s.eng.Crash()
	eng, rep, err := engine.Recover(g.engineConfig(s))
	if err != nil {
		return nil, fmt.Errorf("heal shard %d: %w", i, err)
	}
	s.eng = eng
	report := &GroupReport{
		Reports: make([]*engine.RecoveryReport, len(g.shards)),
		Target:  ep,
	}
	report.Reports[i] = rep

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
			return nil, err
		}
		batch := append(s.reps, g.subBatch(events, i)...)
		if err := s.eng.ProcessEpoch(batch); err != nil {
			return nil, fmt.Errorf("heal shard %d: re-feed epoch %d: %w", i, ep, err)
		}
		report.AlignedShards = 1
	default:
		return nil, fmt.Errorf("heal shard %d: recovered to epoch %d, interrupted epoch was %d", i, rep.LastEpoch, ep)
	}

	// The failing ProcessEpoch bailed before running the barrier; every
	// shard is now at ep, so finish the round.
	if err := g.completeBarrier(ep); err != nil {
		return nil, fmt.Errorf("heal shard %d: complete barrier %d: %w", i, ep, err)
	}
	g.stats = append(g.stats, EpochStat{
		Epoch: ep, Events: len(events), ShardWalls: make([]time.Duration, len(g.shards)),
	})
	g.crashed = false
	report.Wall = time.Since(start)
	return report, nil
}

// healGroup is the group rung: every shard's engine is stopped and
// recovered in place from its own device, exactly as GroupRecover would
// rebuild a fresh group over the same devices. The sequence floor restarts
// from what the shards reload, as a fresh group's does: the dead
// incarnation may have routed an epoch no shard persisted.
func (g *Group) healGroup(src Source) (*GroupReport, error) {
	for _, s := range g.shards {
		s.eng.Crash()
	}
	g.seqFloor = 0
	return g.recoverShards(src, vtime.Costs{}, false, nil)
}
