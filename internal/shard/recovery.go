package shard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/engine"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/vtime"
)

// Source is types.Source under the name the nested benchmark module
// compiles against: group recovery re-feeds the global (pre-routing) batch
// of an epoch through it.
type Source = types.Source

// BatchSource is types.BatchSource, kept for the same reason.
var BatchSource = types.BatchSource

// RecoverConfig parameterizes a group recovery.
type RecoverConfig struct {
	// Config must match the crashed group's, with Devices and CoordDev the
	// surviving devices.
	Config
	// Source re-feeds the alignment epoch to lagging shards. That epoch is
	// the only one read, and it is never below the committed frontier.
	Source Source
	// Serial recovers the shards one at a time instead of in parallel —
	// the baseline the recovery-speedup benchmark compares against.
	Serial bool
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
	// maximum recovered epoch across shards.
	Target uint64
	// AlignedShards counts shards that lagged one epoch behind Target and
	// were re-fed to it (on the shard rung: the healed shard, if re-fed).
	AlignedShards int
	// SerialSim is the simulated wall of recovering the shards one after
	// another (Σ per-shard SimWall); ParallelSim is the simulated wall of
	// the parallel recovery (max per-shard SimWall). Their ratio is the
	// parallel recovery speedup — the headline number of the shard layer.
	// Zero for a heal.
	SerialSim   time.Duration
	ParallelSim time.Duration
	// Wall is the real wall-clock duration of the whole group recovery on
	// this host (the group MTTR), including alignment.
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
// Unlike a heal, it prices every shard's recovery with vtime.FixedCosts.
func GroupRecover(cfg RecoverConfig) (*Group, *GroupReport, error) {
	if cfg.Source == nil {
		return nil, nil, errors.New("shard: GroupRecover requires a Source")
	}
	g, err := newGroupShell(cfg.Config)
	if err != nil {
		return nil, nil, err
	}
	report, err := g.recoverShards(cfg.Source, vtime.FixedCosts(), cfg.Serial, cfg.Profilers)
	if err != nil {
		return nil, nil, err
	}
	return g, report, nil
}

// recoverShards is the group recovery protocol, run over the group's
// devices with every engine stopped:
//
//  1. recover every shard in parallel (or serially) with stock
//     engine.Recover, priced with costs unless they are zero — each
//     shard's snapshot restore + mechanism replay + tail reprocessing is
//     independent of every other shard's — and seat the recovered engine;
//  2. verify the lockstep invariant: recovered epochs may spread by at
//     most one (a shard is fed epoch e+1 only after every shard finished
//     epoch e, and its inputs persist before processing);
//  3. re-align lagging shards by re-feeding the alignment epoch from src,
//     with replication events rebuilt from the durable frontier log (the
//     coordinator appended that record before any shard was fed the epoch);
//  4. arm a full re-sync: the next live epoch replicates every shard's
//     whole owned partition, covering mechanism-replayed epochs whose exact
//     write sets were never captured.
func (g *Group) recoverShards(src Source, costs vtime.Costs, serial bool, profilers []*vtime.Profiler) (*GroupReport, error) {
	start := time.Now()
	report := &GroupReport{Reports: make([]*engine.RecoveryReport, len(g.shards))}

	errs := make([]error, len(g.shards))
	recoverShard := func(i int) {
		ec := g.engineConfig(g.shards[i])
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
	if serial {
		for i := range g.shards {
			recoverShard(i)
		}
	} else {
		var wg sync.WaitGroup
		for i := range g.shards {
			wg.Add(1)
			go func(i int) { defer wg.Done(); recoverShard(i) }(i)
		}
		wg.Wait()
	}
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

	// Lockstep invariant: the barrier never lets a shard run more than one
	// epoch ahead of another.
	lo, hi := report.Reports[0].LastEpoch, report.Reports[0].LastEpoch
	for _, rep := range report.Reports[1:] {
		lo, hi = min(lo, rep.LastEpoch), max(hi, rep.LastEpoch)
	}
	if hi-lo > 1 {
		return nil, fmt.Errorf("shard: group recover: recovered epochs spread from %d to %d; lockstep invariant violated", lo, hi)
	}
	report.Target = hi
	// The sequence floor is one past the highest sequence any shard reloaded:
	// what the shards' logs replay since their snapshots is exactly what a
	// replication sequence must order against.
	for _, rep := range report.Reports {
		g.seqFloor = max(g.seqFloor, rep.NextSeq)
	}

	// Re-align lagging shards: re-feed the alignment epoch through the
	// normal pipeline (inputs re-persist, outputs deliver — the shard's
	// durability gate for this epoch never fired before the crash).
	if lo < hi {
		events, ok := src(hi)
		if !ok {
			return nil, fmt.Errorf("shard: group recover: source has no batch for alignment epoch %d", hi)
		}
		reps, err := g.alignmentReplication(hi, g.minSeqFor(events))
		if err != nil {
			return nil, err
		}
		for i, s := range g.shards {
			if report.Reports[i].LastEpoch == hi {
				continue
			}
			batch := append(reps[i], g.subBatch(events, i)...)
			if err := s.eng.ProcessEpoch(batch); err != nil {
				return nil, fmt.Errorf("shard: group recover: align shard %d to epoch %d: %w", i, hi, err)
			}
			report.AlignedShards++
		}
	}

	g.epoch = hi
	g.fullSync = true
	g.crashed = false

	if !costs.IsZero() {
		for _, rep := range report.Reports {
			sw := rep.SimWall()
			report.SerialSim += sw
			report.ParallelSim = max(report.ParallelSim, sw)
		}
	}
	if len(profilers) > 0 {
		var profs []vtime.Profile
		for _, rep := range report.Reports {
			if rep.Profile != nil {
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

// subBatch routes an epoch's global batch and returns shard i's slice.
func (g *Group) subBatch(events []types.Event, i int) []types.Event {
	var sub []types.Event
	for _, ev := range events {
		if len(ev.Keys) > 0 && g.router.Of(ev.Keys[0]) == i {
			sub = append(sub, ev)
		}
	}
	return sub
}

// alignmentReplication rebuilds every shard's replication events for
// epoch ep, whose replication sequence ceiling is minSeq, from the durable
// frontier record of ep-1, exactly as the live coordinator built them
// before the crash.
func (g *Group) alignmentReplication(ep, minSeq uint64) ([][]types.Event, error) {
	reps := make([][]types.Event, len(g.shards))
	if ep <= 1 {
		return reps, nil
	}
	deltas, ok, err := g.frontierDeltas(ep - 1)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("shard: group recover: frontier record for epoch %d missing (needed to re-align epoch %d)", ep-1, ep)
	}
	for i := range g.shards {
		ev, err := buildReplication(i, deltas, minSeq)
		if err != nil {
			return nil, err
		}
		reps[i] = ev
	}
	return reps, nil
}

// frontierDeltas returns the last durable frontier record for the given
// epoch (at least 1). A decode failure on the log's final record is a torn
// tail (the coordinator died mid-append; no shard can have been fed past it)
// and reads as absent; earlier corruption is an error. Later records for the
// same epoch win: the first live epoch after a recovery re-appends its
// full-sync deltas under the current epoch so a future recovery never
// depends on a record lost to a coordinator-device crash.
func (g *Group) frontierDeltas(epoch uint64) ([]codec.ShardDelta, bool, error) {
	// The log is never released, so the cursor seeks past every earlier
	// epoch: a re-alignment reads the records from epoch on, not the run.
	// Records are appended in non-decreasing epoch order (a full sync goes
	// under the recovered epoch, which no earlier record exceeds), so the
	// last record the cursor yields is the log's last.
	cur, err := storage.ReadFrom(g.coord, LogFrontier, epoch-1)
	if err != nil {
		return nil, false, fmt.Errorf("shard: frontier log: %w", err)
	}
	defer cur.Close()
	// Stream with one record of lookahead, keeping the latest record for the
	// requested epoch and whether it closed the log (only then may a decode
	// failure read as a torn tail).
	var payload []byte
	found, foundIsTail := false, false
	rec, ok, err := cur.Next()
	if err != nil {
		return nil, false, fmt.Errorf("shard: frontier log: %w", err)
	}
	for ok {
		next, nok, nerr := cur.Next()
		if nerr != nil {
			return nil, false, fmt.Errorf("shard: frontier log: %w", nerr)
		}
		if rec.Epoch == epoch {
			payload, found, foundIsTail = rec.Payload, true, !nok
		}
		rec, ok = next, nok
	}
	if !found {
		return nil, false, nil
	}
	deltas, err := codec.DecodeShardDeltas(payload)
	if err != nil {
		if foundIsTail {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("shard: frontier record epoch %d: %w", epoch, err)
	}
	if len(deltas) != len(g.shards) {
		return nil, false, fmt.Errorf("shard: frontier record epoch %d has %d shards, group has %d", epoch, len(deltas), len(g.shards))
	}
	return deltas, true, nil
}
