// Package wal implements WAL, the write-ahead command-logging baseline
// (Section III-B): committed commands (input events) are logged before
// their outputs are released, and recovery redoes them sequentially.
//
// Two deliberate inefficiencies reproduce the paper's findings. First,
// each worker logs the transactions it executed, so the durable log is
// ordered per worker, not globally; recovery must sort every record back
// into timestamp order, the cost the paper observed dominating WAL's
// reload time. Second, redo is single-threaded — command logs admit no
// safe parallelism without dependency information — so with W workers
// configured, W-1 of them idle for the whole redo, which the breakdown
// charges to wait time exactly as the paper's stacked bars do.
package wal

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/vtime"
)

// Mech is the WAL mechanism.
type Mech struct {
	ftapi.GroupCommitter
}

// New creates the WAL mechanism writing to dev, accounting into bytes.
func New(dev storage.Device, bytes *metrics.Bytes) *Mech {
	return &Mech{GroupCommitter: ftapi.NewGroupCommitter(dev, bytes, "wal-buffer", "wal-log")}
}

// Kind implements ftapi.Mechanism.
func (m *Mech) Kind() ftapi.Kind { return ftapi.WAL }

// SealEpoch implements ftapi.Mechanism: it buffers the epoch's committed
// commands in per-worker order (each worker appends the transactions whose
// condition operation it owned), the order a real per-worker logger
// produces.
func (m *Mech) SealEpoch(ep *ftapi.EpochResult) {
	recs := make([]codec.WALRecord, 0, len(ep.Graph.Txns))
	for w := 0; w < ep.Workers; w++ {
		for _, tn := range ep.Graph.Txns {
			if tn.Aborted() {
				continue // only committed transactions are logged
			}
			if tn.Ops[0].Chain.Owner != w {
				continue
			}
			recs = append(recs, codec.WALRecord{Event: tn.Txn.Event})
		}
	}
	m.SealInto(ep.Epoch, func(w *codec.Buffer) { codec.EncodeWALInto(w, recs) })
}

// GC implements ftapi.Mechanism; the engine truncates the durable log.
func (m *Mech) GC(uint64) {}

// Recover implements ftapi.Mechanism: reload all command records, sort
// them into global order, and redo them one by one on a single thread. A
// torn tail record — a group commit the device died inside — is discarded:
// its epochs never acknowledged, so they reprocess through the engine's
// uncommitted-tail path instead.
func (m *Mech) Recover(rc *ftapi.RecoveryContext) (uint64, error) {
	costs := rc.Costs
	groups, committed, err := ftapi.ReadCommitted(rc, codec.DecodeWAL)
	if err != nil {
		return 0, fmt.Errorf("wal: recover: %w", err)
	}
	recs := ftapi.Flatten(groups)
	// Global ordering: the logs are per-worker ordered, and command redo
	// is only correct in timestamp order, so everything must be sorted —
	// the reload cost the paper highlights (all threads blocked behind
	// decode plus an n·log n sort).
	sort.Slice(recs, func(i, j int) bool { return recs[i].Event.Seq < recs[j].Event.Seq })
	rc.Serial("decode+sort", &rc.Breakdown.Reload, time.Duration(len(recs))*costs.Record+costs.SortCost(len(recs)))

	// Sequential redo: command logs admit no safe parallelism, so one
	// virtual worker replays everything (executed for real here) while
	// the other W-1 idle — the wait time that makes WAL's bar the
	// tallest in the paper's stacked accounting. On the profiled timeline
	// every record lands on lane 0; the phase's critical path is the
	// largest single record cost — the best bound a command log can
	// claim, since it retains no dependency information at all.
	rc.Prof.BeginPhase("redo")
	var construct, execute time.Duration
	for i := range recs {
		txn := rc.App.Preprocess(recs[i].Event)
		aborted := ftapi.ExecuteTxnOnStore(rc.Store, &txn)
		if rc.Prof != nil {
			unit := costs.Preprocess + costs.TxnCost(&txn)
			rc.Prof.Op(0, "ev"+strconv.FormatUint(recs[i].Event.Seq, 10),
				construct+execute, 0, unit, aborted, vtime.EdgeNone, "", unit)
		}
		construct += costs.Preprocess
		execute += costs.TxnCost(&txn)
	}
	rc.Breakdown.Construct += construct
	rc.Breakdown.Execute += execute
	if rc.Workers > 1 {
		rc.Breakdown.Wait += time.Duration(rc.Workers-1) * (construct + execute)
		for w := 1; w < rc.Workers; w++ {
			rc.Prof.StallUntil(w, construct+execute, vtime.EdgeSerial, "redo")
		}
	}
	rc.Prof.EndPhase(construct + execute)
	return committed, nil
}
