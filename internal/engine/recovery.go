package engine

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/vtime"
)

// RecoveryReport quantifies one recovery run: the six-way breakdown of
// Figure 11 (aggregate thread-time; divide by workers for wall-clock
// scale), the wall-clock duration, and the replayed volume. Recovery
// throughput (Figure 13/14) is EventsReplayed divided by Wall.
type RecoveryReport struct {
	Breakdown metrics.RecoveryBreakdown
	// CommitIO is time spent re-sealing and re-committing the uncommitted
	// tail, outside the six-way decomposition.
	CommitIO time.Duration
	// Wall is the real wall-clock duration of the recovery run on this
	// host (replay on the engine's executor plus, if priced, the walk that
	// prices it); use SimWall for the recovery time a W-worker machine
	// would take.
	Wall time.Duration
	// Workers is the parallelism the recovery was simulated at.
	Workers int
	// Shard is the group shard identity of the recovered engine
	// (Config.Shard; zero for unsharded engines).
	Shard int
	// EventsReplayed counts input events between snapshot and failure point.
	EventsReplayed int
	// SnapshotEpoch, CommittedEpoch, and LastEpoch locate the recovery:
	// state restored from SnapshotEpoch, mechanism log replayed through
	// CommittedEpoch, inputs reprocessed through LastEpoch.
	SnapshotEpoch  uint64
	CommittedEpoch uint64
	LastEpoch      uint64
	// Profile is the recovery profiler's report (per-worker virtual-time
	// decomposition, phase table, critical-path bounds, stall
	// attribution); nil unless Config.RecoveryProfiler was set.
	Profile *vtime.Profile
}

// SimWall is the simulated wall-clock recovery time under the configured
// worker count: the aggregate thread-time breakdown divided by workers
// (see metrics.RecoveryBreakdown's accounting convention). This is the
// "recovery time" of Figures 2 and 11.
func (r *RecoveryReport) SimWall() time.Duration {
	w := r.Workers
	if w < 1 {
		w = 1
	}
	return (r.Breakdown.Total() + r.CommitIO*time.Duration(w)) / time.Duration(w)
}

// Throughput returns the recovery throughput in events per simulated
// second — the y-axis of Figures 13 and 14.
func (r *RecoveryReport) Throughput() float64 {
	return metrics.Throughput(r.EventsReplayed, r.SimWall())
}

// Recover rebuilds a working engine from the durable device after a crash,
// following the protocol of Figure 7:
//
//  1. restore application state from the latest snapshot;
//  2. reload persisted input events;
//  3. let the mechanism replay its committed epochs (outputs suppressed —
//     they were delivered before the crash);
//  4. reprocess the uncommitted tail through the normal pipeline (outputs
//     delivered — their durability gate never fired before the crash).
//
// The configuration must match the crashed engine's (same application,
// same worker count, a fresh Mechanism instance of the same kind), and
// Device must be the surviving device. Recovery never re-runs the
// commit-interval advisor, so AutoCommit is ignored: the recovered engine
// commits every CommitEvery epochs.
func Recover(cfg Config) (_ *Engine, _ *RecoveryReport, err error) {
	cfg.AutoCommit = false
	e, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			e.Close() // replay ran on the executor, whose pool must not leak
		}
	}()
	if e.cfg.Mechanism.Kind() == ftapi.NAT {
		return nil, nil, fmt.Errorf("engine: native execution persists nothing; recovery impossible")
	}
	report := &RecoveryReport{}
	start := time.Now()

	// Restore from checkpoint (Figure 7 steps 1-2). Device reads are real
	// time (the throttle models the paper's SSD); state restore and input
	// decode charge Config.RecoveryCosts so recovery times stay
	// deterministic (see package vtime).
	rc := &ftapi.RecoveryContext{
		App:       e.cfg.App,
		Store:     e.st,
		Device:    e.cfg.Device,
		Workers:   e.cfg.Workers,
		Execute:   func(ep uint64, g *tpg.Graph) error { return e.exec.Execute(ep, g, e.st) },
		Breakdown: &report.Breakdown,
		Costs:     e.cfg.RecoveryCosts,
		Prof:      e.cfg.RecoveryProfiler,
	}
	logRead := e.cfg.Obs.Begin(0, obs.CatRecovery, "log-read", 0)
	readStop := metrics.SerialTimer(&report.Breakdown.Reload, e.cfg.Workers)
	blob, ok, err := e.cfg.Device.ReadBlob(storage.BlobSnapshot)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: recover: %w", err)
	}
	// Under asynchronous commit, mechanism replay must not cross the
	// delivery watermark: a commit record may be durable whose outputs
	// never released; those epochs reprocess through the tail path.
	commitLimit := uint64(1<<63 - 1)
	if e.cfg.AsyncCommit {
		wm, wok, err := e.cfg.Device.ReadBlob(storage.BlobMeta)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: recover watermark: %w", err)
		}
		// Async engine that never released anything yet reads as zero; the
		// clamp below raises it to the snapshot epoch.
		commitLimit = 0
		if wok {
			if m, merr := storage.DecodeManifestKind(wm, manifestKindDelivery); merr == nil {
				commitLimit = m.Epoch
			} else if len(wm) == 8 {
				// Pre-manifest watermark blob (a device written by an older
				// build): a bare big-endian epoch.
				commitLimit = binary.BigEndian.Uint64(wm)
			}
		}
	}
	readStop()
	logRead.End()

	rebuild := e.cfg.Obs.Begin(0, obs.CatRecovery, "rebuild", 0)
	var snapEpoch uint64
	if ok {
		snapEpoch, err = decodeSnapshotBlob(blob, e.st)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: recover snapshot: %w", err)
		}
		rc.Serial("snapshot-restore", &report.Breakdown.Reload, time.Duration(e.st.NumRecords())*rc.Costs.Compare)
	}

	// Compose the delta chain on top of the base (or on the initial state
	// when no base committed yet): each checkpoint-log record above the base
	// epoch restores its partitions and advances the snapshot frontier. A
	// decode failure on the final record is a torn delta append — that
	// marker never completed, nothing downstream (GC included) acted on it,
	// so it is logically truncated like any torn tail.
	snapEpoch, restored, err := e.composeDeltas(snapEpoch)
	if err != nil {
		return nil, nil, err
	}
	if restored > 0 {
		rc.Serial("delta-restore", &report.Breakdown.Reload, time.Duration(restored)*rc.Costs.Compare)
	}

	// Reload input events after the snapshot frontier (Figure 7 step 4),
	// from the host (Config.Inputs) or the device's input log.
	read := e.cfg.Inputs
	if read == nil {
		read = e.readInputLog
	}
	inputs, through, err := read(snapEpoch)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: recover inputs: %w", err)
	}
	supplied, nEvents := snapEpoch, 0
	for _, ee := range inputs {
		supplied = ee.Epoch
		nEvents += len(ee.Events)
	}
	rc.Spread("input-decode", &report.Breakdown.Reload, time.Duration(nEvents)*rc.Costs.Record)
	rebuild.End()

	// Mechanism-specific replay of committed epochs (Figure 7 steps 3-7).
	replay := e.cfg.Obs.Begin(0, obs.CatRecovery, "replay", 0)
	rc.SnapshotEpoch, rc.Inputs, rc.CommitLimit = snapEpoch, inputs, max(commitLimit, snapEpoch)
	committed, err := e.cfg.Mechanism.Recover(rc)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: recover (%v): %w", e.cfg.Mechanism.Kind(), err)
	}
	committed = max(committed, snapEpoch)
	// Input is kept before it is processed (a torn input record can only be
	// the epoch the crash interrupted), so a mechanism claiming a commit
	// past the inputs replayed state whose inputs are lost.
	if committed > supplied {
		return nil, nil, fmt.Errorf("engine: recover: inputs end at epoch %d but %v committed through %d",
			supplied, e.cfg.Mechanism.Kind(), committed)
	}

	// Reprocess the uncommitted tail through the normal pipeline. Inputs
	// are already durable; outputs deliver because their gate never fired.
	e.epoch = committed
	e.lastCommit = committed
	e.lastSnap = snapEpoch
	for _, ee := range inputs {
		if ee.Epoch <= committed {
			report.EventsReplayed += len(ee.Events)
			continue
		}
		if ee.Epoch > through {
			break
		}
		if ee.Epoch != e.epoch+1 {
			return nil, nil, fmt.Errorf("engine: recover: input log gap: have epoch %d, expected %d",
				ee.Epoch, e.epoch+1)
		}
		ioBefore := e.runtime.IO
		if err := e.reprocessEpoch(ee.Epoch, ee.Events, rc); err != nil {
			return nil, nil, fmt.Errorf("engine: recover tail epoch %d: %w", ee.Epoch, err)
		}
		report.CommitIO += e.runtime.IO - ioBefore
		e.epoch = ee.Epoch
		report.EventsReplayed += len(ee.Events)
	}

	replay.End()
	if rc.Prof != nil {
		p := rc.Prof.Profile()
		report.Profile = &p
	}
	if reg := e.cfg.Obs.Registry(); reg != nil {
		reg.Counter("recovery.count").Inc()
		reg.Counter("recovery.events_replayed").Add(int64(report.EventsReplayed))
		reg.Histogram("recovery.seconds").ObserveSince(start)
		if p := report.Profile; p != nil {
			reg.Gauge("recovery.vtimeline_us").Set(p.Timeline.Microseconds())
			reg.Gauge("recovery.critical_path_us").Set(p.CritPath.Microseconds())
			reg.Histogram("recovery.cp_ratio").Observe(p.CPRatio)
			reg.Histogram("recovery.stall_share").Observe(p.StallShare())
		}
	}
	if p := report.Profile; p != nil && e.cfg.Obs != nil {
		e.cfg.Obs.SetView("recovery", func() any { return p })
	}

	report.Wall = time.Since(start)
	report.Workers = e.cfg.Workers
	report.Shard = e.cfg.Shard
	report.SnapshotEpoch = snapEpoch
	report.CommittedEpoch = committed
	report.LastEpoch = e.epoch
	// Runtime accounting restarts clean: recovery costs live in the report.
	e.runtime = metrics.RuntimeBreakdown{}
	e.totalWall, e.events = 0, 0
	return e, report, nil
}

// readInputLog is Recover's input reader for an engine that keeps its own
// input log: the records after epoch after (the segment store's cursor
// seeks past the checkpoint-covered prefix), reprocessed through the last.
// A decode failure on the log's final record is a torn tail: the device
// died mid-append, the epoch never processed to completion and nothing
// downstream can reference it, so it is logically truncated here. Failures
// anywhere earlier are real corruption.
func (e *Engine) readInputLog(after uint64) ([]ftapi.EpochEvents, uint64, error) {
	cur, err := storage.ReadFrom(e.cfg.Device, storage.LogInput, after)
	if err != nil {
		return nil, 0, err
	}
	recs, err := storage.ReadAll(cur)
	if err != nil {
		return nil, 0, err
	}
	inputs := make([]ftapi.EpochEvents, 0, len(recs))
	for i, rec := range recs {
		events, err := codec.DecodeEvents(rec.Payload)
		if err != nil && i == len(recs)-1 {
			break
		} else if err != nil {
			return nil, 0, fmt.Errorf("epoch %d: %w", rec.Epoch, err)
		}
		inputs = append(inputs, ftapi.EpochEvents{Epoch: rec.Epoch, Events: events})
	}
	sort.Slice(inputs, func(i, j int) bool { return inputs[i].Epoch < inputs[j].Epoch })
	return inputs, ^uint64(0), nil
}
