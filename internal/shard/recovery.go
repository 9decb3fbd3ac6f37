package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/vtime"
)

// Source is types.Source under the name the nested benchmark module
// compiles against: group recovery reads the global (pre-routing) batch of
// every epoch it rebuilds through it.
type Source = types.Source

// BatchSource is types.BatchSource, kept for the same reason.
var BatchSource = types.BatchSource

// RecoverConfig parameterizes a group recovery.
type RecoverConfig struct {
	// Config must match the crashed group's, with Devices and CoordDev the
	// surviving devices.
	Config
	// Source holds the global batch of every epoch from the replay horizon
	// (Group.Horizon) on: shards keep no input log, so every epoch they
	// replay or are re-fed is rebuilt from it and the frontier log.
	Source Source
	// Serial recovers the shards one at a time instead of in parallel —
	// the baseline the recovery-speedup benchmark compares against.
	Serial bool
	// Unpriced recovers as a heal does, without the cost model: the same
	// replay, reported without model terms (pass no Profilers with it). By
	// default every shard's recovery is priced with vtime.FixedCosts.
	Unpriced bool
	// Profilers, when non-nil, attaches a recovery profiler per shard
	// (index = shard) so the group report carries a rolled-up virtual-time
	// profile.
	Profilers []*vtime.Profiler
}

// GroupReport quantifies one group recovery or heal.
type GroupReport struct {
	// Reports are the per-shard engine recovery reports, indexed by shard.
	// A heal on the shard rung recovers one shard; the others are nil.
	Reports []*engine.RecoveryReport
	// Target is the punctuation frontier processing resumed from: the
	// epoch of the frontier log's last record, or the epoch after it if a
	// shard committed that one before the barrier died.
	Target uint64
	// AlignedShards counts shards the recovery left behind Target and
	// re-fed to it (on the shard rung: the healed shard, if re-fed).
	AlignedShards int
	// SerialSim is the simulated wall of recovering the shards one after
	// another (Σ per-shard SimWall); ParallelSim is the simulated wall of
	// the parallel recovery (max per-shard SimWall). Their ratio is the
	// parallel recovery speedup — the headline number of the shard layer.
	// Zero for a heal.
	SerialSim   time.Duration
	ParallelSim time.Duration
	// Wall is the real wall-clock duration of the whole group recovery on
	// this host (the group MTTR), re-feeds included.
	Wall time.Duration
	// Profile is the per-shard virtual-time rollup (nil unless Profilers
	// were supplied).
	Profile *vtime.GroupProfile
}

// Speedup returns SerialSim / ParallelSim — how much faster the group
// recovers by replaying shards concurrently instead of one at a time.
func (r *GroupReport) Speedup() float64 {
	if r.ParallelSim <= 0 {
		return 0
	}
	return float64(r.SerialSim) / float64(r.ParallelSim)
}

// GroupRecover rebuilds a working group from the surviving devices at a
// cold start: a fresh group is assembled over cfg's devices and recovered
// with recoverShards, the same body a live group's Heal runs in place.
// Unlike a heal, it prices every shard's recovery with vtime.FixedCosts,
// unless cfg.Unpriced.
func GroupRecover(cfg RecoverConfig) (*Group, *GroupReport, error) {
	if cfg.Source == nil {
		return nil, nil, errors.New("shard: GroupRecover requires a Source")
	}
	g, err := newGroupShell(cfg.Config)
	if err != nil {
		return nil, nil, err
	}
	costs := vtime.FixedCosts()
	if cfg.Unpriced {
		costs = vtime.Costs{}
	}
	report, err := g.recoverShards(cfg.Source, nil, costs, cfg.Serial, cfg.Profilers)
	if err != nil {
		return nil, nil, err
	}
	return g, report, nil
}

// recoverShards is the group recovery protocol, run with the engines of the
// dead shards stopped (every shard's when dead is nil):
//
//  1. recover every dead shard in parallel (or serially) with stock
//     engine.Recover, priced with costs unless they are zero, over the
//     inputs the replay rebuilds from src and the frontier log;
//  2. verify the lockstep invariant: epoch e+1 is fed only once the barrier
//     of e appended its frontier record, so no shard can have committed
//     past the epoch after the log's last record;
//  3. resume at Target, the later of that record's epoch and the highest
//     committed one: re-feed every shard the epochs it did not reach, and
//     stand where the live group stood after Target's barrier.
func (g *Group) recoverShards(src Source, dead []bool, costs vtime.Costs, serial bool, profilers []*vtime.Profiler) (*GroupReport, error) {
	start := time.Now()
	report := &GroupReport{Reports: make([]*engine.RecoveryReport, len(g.shards))}
	rp, err := g.newReplay(src)
	if err != nil {
		return nil, fmt.Errorf("shard: group recover: %w", err)
	}

	errs := make([]error, len(g.shards))
	recoverShard := func(i int) {
		g.shards[i].writeSetEpoch = 0 // a replayed epoch's write set is unknown
		ec := g.engineConfig(g.shards[i], rp)
		ec.RecoveryCosts = costs
		if len(profilers) > i && profilers[i] != nil {
			ec.RecoveryProfiler = profilers[i]
		}
		eng, rep, err := engine.Recover(ec)
		if err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
			return
		}
		g.shards[i].eng = eng
		report.Reports[i] = rep
	}
	var wg sync.WaitGroup
	for i := range g.shards {
		switch {
		case dead != nil && !dead[i]:
		case serial:
			recoverShard(i)
		default:
			wg.Add(1)
			go func(i int) { defer wg.Done(); recoverShard(i) }(i)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for i, rep := range report.Reports { // the group stays down
				if rep != nil {
					g.shards[i].eng.Close()
				}
			}
			return nil, fmt.Errorf("shard: group recover: %w", err)
		}
	}

	report.Target = rp.last
	for i, s := range g.shards {
		if rep := report.Reports[i]; rep != nil && rep.CommittedEpoch > rp.last+1 {
			return nil, fmt.Errorf("shard: group recover: shard %d committed epoch %d but the frontier log ends at %d; lockstep invariant violated",
				i, rep.CommittedEpoch, rp.last)
		}
		report.Target = max(report.Target, s.eng.Epoch())
	}
	for i, s := range g.shards {
		if last := s.eng.Epoch(); last < report.Target {
			if err := rp.refeed(i, last, report.Target); err != nil {
				return nil, fmt.Errorf("shard: group recover: %w", err)
			}
			report.AlignedShards++
		}
	}
	if err := rp.resume(report.Target); err != nil {
		return nil, fmt.Errorf("shard: group recover: %w", err)
	}
	g.crashed = false

	if !costs.IsZero() && dead == nil {
		for _, rep := range report.Reports {
			sw := rep.SimWall()
			report.SerialSim += sw
			report.ParallelSim = max(report.ParallelSim, sw)
		}
	}
	if len(profilers) > 0 {
		var profs []vtime.Profile
		for _, rep := range report.Reports {
			if rep != nil && rep.Profile != nil {
				profs = append(profs, *rep.Profile)
			}
		}
		if len(profs) > 0 {
			gp := vtime.RollupGroup(profs)
			report.Profile = &gp
		}
	}
	report.Wall = time.Since(start)
	if reg := g.cfg.Obs.Registry(); reg != nil {
		reg.Counter("group.recoveries").Inc()
		reg.Histogram("group.recovery_seconds").ObserveSince(start)
	}
	return report, nil
}

// replay rebuilds, for one recovery, every epoch from the replay horizon
// on as the live coordinator fed it: the global batch from the recovery
// source, read once per epoch, and each shard's replication events from
// the previous epoch's frontier record, read in one pass over the log.
// It is read-only while the shards recover. frontier holds each epoch's
// latest record and last the epoch of the log's last one; epochs holds
// every epoch the source has from the first record through last+1.
type replay struct {
	g        *Group
	frontier map[uint64]frontierRecord
	last     uint64
	epochs   map[uint64]*replayEpoch
}

// frontierRecord is one decoded frontier record: the barrier's per-shard
// deltas and the sequence floor after its epoch.
type frontierRecord struct {
	deltas []codec.ShardDelta
	floor  uint64
}

// replayEpoch is one epoch's input: the global batch, each shard's share of
// it in order, the barrier deltas it replicates and its replication
// sequence ceiling.
type replayEpoch struct {
	events  []types.Event
	subs    [][]types.Event
	deltas  []codec.ShardDelta
	ceiling uint64
}

// newReplay reads the frontier log once, from the record before the replay
// horizon (of the engines the group holds; a group assembled for
// GroupRecover holds none yet and reads what the log retains). A shard
// snapshots epoch h only once the barrier of h-1 appended its record, so
// that record is there, and it closes the log if the barrier of h died.
// The latest record of an epoch wins. A decode failure on the log's final
// record is a torn tail (the coordinator died mid-append; no shard was fed
// past it) and reads as absent; earlier corruption is an error.
func (g *Group) newReplay(src Source) (*replay, error) {
	from := uint64(0)
	if !slices.ContainsFunc(g.shards, func(s *shardState) bool { return s.eng == nil }) {
		from = g.Horizon()
	}
	cur, err := storage.ReadFrom(g.coord, LogFrontier, max(from, 2)-2)
	if err != nil {
		return nil, fmt.Errorf("frontier log: %w", err)
	}
	recs, err := storage.ReadAll(cur)
	if err != nil {
		return nil, fmt.Errorf("frontier log: %w", err)
	}
	rp := &replay{g: g, frontier: map[uint64]frontierRecord{}, epochs: map[uint64]*replayEpoch{}}
	for i, rec := range recs {
		deltas, floor, err := codec.DecodeFrontier(rec.Payload)
		if err != nil && i == len(recs)-1 {
			break
		} else if err == nil && len(deltas) != len(g.shards) {
			err = fmt.Errorf("%d shards, group has %d", len(deltas), len(g.shards))
		}
		if err != nil {
			return nil, fmt.Errorf("frontier record epoch %d: %w", rec.Epoch, err)
		}
		rp.frontier[rec.Epoch], rp.last = frontierRecord{deltas: deltas, floor: floor}, max(rp.last, rec.Epoch)
	}
	first := uint64(0) // a log never released holds epoch 1, which needs no record
	if len(recs) > 0 && recs[0].Epoch > 1 {
		first = recs[0].Epoch
	}
	for ep := first + 1; ep <= rp.last+1; ep++ {
		events, ok := src(ep)
		if !ok {
			continue
		}
		prev, ok := rp.frontier[ep-1]
		if !ok && ep > 1 {
			return nil, fmt.Errorf("frontier record for epoch %d missing (needed to rebuild epoch %d)", ep-1, ep)
		}
		e := &replayEpoch{events: events, subs: make([][]types.Event, len(g.shards)), deltas: prev.deltas, ceiling: ceiling(events, prev.floor)}
		for _, ev := range events {
			s := g.router.Of(ev.Keys[0])
			e.subs[s] = append(e.subs[s], ev)
		}
		rp.epochs[ep] = e
	}
	return rp, nil
}

// inputs is engine.Config.Inputs for shard i: every epoch after the
// shard's snapshot that the replay holds, each its replication events (in
// fresh memory) then its share of the batch. The engine reprocesses its
// tail through the log's last record; the group re-feeds the epoch after.
func (rp *replay) inputs(i int, after uint64) ([]ftapi.EpochEvents, uint64, error) {
	var out []ftapi.EpochEvents
	for ep := after + 1; rp.epochs[ep] != nil; ep++ {
		e := rp.epochs[ep]
		reps, err := buildReplication(i, e.deltas, e.ceiling)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, ftapi.EpochEvents{Epoch: ep, Events: append(reps, e.subs[i]...)})
	}
	return out, rp.last, nil
}

// refeed feeds shard i epochs from+1 through to through the live pipeline
// (outputs deliver: the shard's durability gate for them never fired),
// staging each epoch's replication as the live coordinator staged it.
func (rp *replay) refeed(i int, from, to uint64) error {
	s := rp.g.shards[i]
	for ep := from + 1; ep <= to; ep++ {
		e := rp.epochs[ep]
		if e == nil {
			return fmt.Errorf("source has no batch for epoch %d (re-feeding shard %d)", ep, i)
		}
		if err := s.stageReplication(e.deltas, e.ceiling); err != nil {
			return err
		}
		s.batch = append(append(s.batch[:0], s.reps...), e.subs[i]...)
		if err := s.eng.ProcessEpoch(s.batch); err != nil {
			return fmt.Errorf("re-feed shard %d epoch %d: %w", i, ep, err)
		}
	}
	return nil
}

// resume leaves the group as the live one stood after epoch ep's barrier:
// its frontier record, if durable, is the next epoch's replication payload
// and holds the sequence floor. If the group died inside that barrier
// after a shard committed the epoch, the barrier is finished here, on the
// sequence floor the live epoch left; a shard whose mechanism replayed the
// epoch publishes its full owned partition, its write set being unknown.
func (rp *replay) resume(ep uint64) error {
	g := rp.g
	g.epoch = ep
	if f, ok := rp.frontier[ep]; ok || ep == 0 { // before epoch 1: no deltas, no floor
		g.lastDeltas, g.seqFloor = f.deltas, f.floor
		return nil
	}
	e := rp.epochs[ep]
	if e == nil {
		return fmt.Errorf("source has no batch for epoch %d", ep)
	}
	g.seqFloor = rp.frontier[ep-1].floor
	g.minSeqFor(e.events)
	if err := g.completeBarrier(ep); err != nil {
		return err
	}
	g.stats = append(g.stats, EpochStat{Epoch: ep, Events: len(e.events), ShardWalls: make([]time.Duration, len(g.shards))})
	return nil
}
