// Package ftapi defines the contract between the engine and its pluggable
// fault-tolerance mechanisms.
//
// The engine drives the shared protocol (Sections IV, V-C, VI-C): it
// persists input events before processing, snapshots the store at snapshot
// markers, garbage-collects covered artifacts, and reprocesses the
// uncommitted tail after a crash. A Mechanism contributes the
// scheme-specific parts: what to record when an epoch seals, how to commit
// the records (group commit at commit markers), and how to replay its
// committed epochs during recovery.
//
// Exactly-once delivery hinges on one rule shared by all mechanisms:
// outputs become visible downstream if and only if their epoch's log
// commit record (or, for CKPT, the covering snapshot) is durable. Recovery
// therefore re-executes committed epochs with outputs suppressed, and the
// engine reprocesses uncommitted epochs through the normal path with
// outputs delivered.
package ftapi

import (
	"fmt"
	"time"

	"morphstreamr/internal/metrics"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
	"morphstreamr/internal/vtime"
)

// Kind enumerates the implemented fault-tolerance schemes, matching the
// comparison set of Section VIII-A.
type Kind uint8

const (
	// NAT is native execution: no fault tolerance, the runtime upper bound.
	NAT Kind = iota
	// CKPT is global checkpointing: snapshots plus full reprocessing.
	CKPT
	// WAL is write-ahead command logging with sequential redo.
	WAL
	// DL is dependency logging in the style of DistDGCC.
	DL
	// LV is LSN-vector logging in the style of Taurus.
	LV
	// MSR is MorphStreamR: intermediate-result logging with
	// dependency-aware parallel recovery.
	MSR
)

// String returns the scheme's paper abbreviation.
func (k Kind) String() string {
	switch k {
	case NAT:
		return "NAT"
	case CKPT:
		return "CKPT"
	case WAL:
		return "WAL"
	case DL:
		return "DL"
	case LV:
		return "LV"
	case MSR:
		return "MSR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Kinds lists all schemes in presentation order.
func Kinds() []Kind { return []Kind{NAT, CKPT, WAL, DL, LV, MSR} }

// ParseKind converts a paper abbreviation (case-sensitive) to a Kind.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return NAT, fmt.Errorf("ftapi: unknown fault-tolerance kind %q", s)
}

// EpochResult is the engine's hand-off to SealEpoch: one fully executed
// epoch, before its outputs are released. Mechanisms read but never mutate
// it; the graph carries operation results, abort flags, and chain
// structure — everything dependency tracking needs.
//
// The Graph (its nodes, chains, and transactions) is valid only for the
// duration of the SealEpoch call: the engine recycles graph memory across
// epochs, so a mechanism must encode whatever it needs during the call
// and retain no references into the graph afterwards. (Epoch, Events, and
// plain values copied out of the graph are fine to keep.)
type EpochResult struct {
	Epoch   uint64
	Events  []types.Event
	Graph   *tpg.Graph
	Workers int
}

// EpochEvents pairs an epoch number with its reloaded input events.
type EpochEvents struct {
	Epoch  uint64
	Events []types.Event
}

// RecoveryContext carries everything a mechanism needs to replay its
// committed epochs after the engine has restored the latest snapshot.
type RecoveryContext struct {
	App    types.App
	Store  *store.Store
	Device storage.Device
	// Workers is the parallelism available to the replay.
	Workers int
	// SnapshotEpoch is the epoch covered by the restored snapshot; replay
	// starts at SnapshotEpoch+1.
	SnapshotEpoch uint64
	// Inputs holds the persisted input events of every epoch after the
	// snapshot, in epoch order (the engine already paid the reload cost).
	Inputs []EpochEvents
	// Execute runs one replayed epoch's graph to completion against Store:
	// the engine binds its own executor, so a replay runs on the scheduler
	// the live epochs run on, under its panic contract (an operation panic
	// is an error wrapping scheduler.ErrOpPanic). It may overwrite chain
	// owners. Required for every mechanism that replays a graph.
	Execute func(epoch uint64, g *tpg.Graph) error
	// Breakdown accumulates the recovery-time decomposition of Figure 11.
	Breakdown *metrics.RecoveryBreakdown
	// Costs prices the replay: vtime walks it after it has run. Zero
	// leaves it unpriced — it executes and checks everything, charges only
	// device reads, and skips the work only the walk reads.
	Costs vtime.Costs
	// Prof, when non-nil, receives the per-worker virtual-time span events
	// of the pricing (phase structure, one span per replayed unit, stall
	// attribution, critical-path bounds). A nil profiler is fully disabled
	// — mechanisms call it unconditionally.
	Prof *vtime.Profiler
}

// Spread charges d, work spread over all workers, to into and profiles it.
func (rc *RecoveryContext) Spread(name string, into *time.Duration, d time.Duration) {
	*into += d
	rc.Prof.SpreadPhase(name, d)
}

// Serial charges d, one worker's work the rest wait out, to into likewise.
func (rc *RecoveryContext) Serial(name string, into *time.Duration, d time.Duration) {
	metrics.ChargeSerial(into, d, rc.Workers)
	rc.Prof.SerialPhase(name, d)
}

// InputsThrough returns the prefix of rc.Inputs with Epoch <= hi.
func (rc *RecoveryContext) InputsThrough(hi uint64) []EpochEvents {
	for i, ee := range rc.Inputs {
		if ee.Epoch > hi {
			return rc.Inputs[:i]
		}
	}
	return rc.Inputs
}

// Mechanism is one fault-tolerance scheme.
//
// Lifecycle at runtime: SealEpoch after every processed epoch (buffer
// records; the engine charges the call to tracking time), Commit at commit
// markers (persist buffered records atomically; charged to I/O time), and
// GC after a snapshot commits (drop artifacts the snapshot covers).
//
// Recover replays the mechanism's committed epochs from its durable log
// onto rc.Store with outputs suppressed, charges rc.Breakdown, and returns
// the highest epoch it replayed; the engine reprocesses every later epoch
// through the normal path. A mechanism with no log of its own (CKPT)
// returns rc.SnapshotEpoch.
type Mechanism interface {
	Kind() Kind
	SealEpoch(ep *EpochResult)
	Commit(hi uint64) error
	GC(upTo uint64)
	Recover(rc *RecoveryContext) (committed uint64, err error)
}
