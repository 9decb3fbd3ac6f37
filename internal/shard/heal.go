package shard

import (
	"errors"
	"fmt"
	"time"

	"morphstreamr/internal/engine"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/vtime"
)

// Heal recovers the group after ProcessEpoch failed with procErr, rebuilding
// from src (and the frontier log) every epoch the shards replay or are
// re-fed: src must cover every epoch from the replay horizon on. It returns
// where the group resumed: every epoch above rep.Target was lost and must be
// fed again. It is the one heal of a live group, a ladder of two rungs:
//
//  1. the shard rung: a *ShardError naming the only shard that failed
//     runs the group recovery over that shard alone. The survivors have
//     completed the epoch (the concurrent barrier only joins afterwards),
//     so it re-feeds the interrupted epoch unless the mechanism replayed
//     it, and completes the interrupted barrier. A write storm that has
//     passed costs nothing more; one still raging fails the rung;
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
	rung := -1 // the shard rung's shard: the one procErr names, if no other failed
	var serr *ShardError
	if errors.As(procErr, &serr) && serr.Shard >= 0 && serr.Shard < len(g.shards) {
		rung = serr.Shard
		for j, err := range g.errs {
			if j != rung && err != nil {
				rung = -1
			}
		}
	}
	var rep *GroupReport
	var err error
	if rung >= 0 {
		dead := make([]bool, len(g.shards))
		dead[rung] = true
		g.shards[rung].eng.Crash()
		rep, err = g.recoverShards(src, dead, vtime.Costs{}, false, nil)
	}
	if rep == nil {
		for _, s := range g.shards {
			s.eng.Crash()
		}
		rep, err = g.recoverShards(src, nil, vtime.Costs{}, false, nil)
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
