package types

import "fmt"

// RunShape is the one definition of the engine-facing run knobs every host
// honours: engine.Config, shard.Config (through GroupShape),
// crashtest.Config (and through it the chaos kernel), and bench.Scale all
// embed it instead of re-declaring Workers/CommitEvery/SnapshotEvery with
// their own drifted zero-value defaults. Knobs only some hosts can honour
// live on those hosts (Shards on GroupShape).
//
// Zero-value rule (the single defaulting path, applied by Normalize):
//
//   - Workers      0 → 1. One rule everywhere: the scheduler historically
//     treated zero as GOMAXPROCS while the engine documented "zero means
//     1"; both now route through Normalize and zero means one worker.
//     Parallelism is always an explicit decision: Workers is a ceiling,
//     never a default taken from the host.
//   - CommitEvery  0 → 1 (commit every epoch).
//   - SnapshotEvery 0 → 8.
//   - SnapshotBase 0 → 1 (every snapshot marker is a full snapshot).
//
// Validation (the single validation path): CommitEvery must divide
// SnapshotEvery, so every snapshot marker lands on a commit boundary and
// garbage collection never outruns an uncommitted group.
type RunShape struct {
	// Workers is the execution parallelism ceiling: the engine's adaptive
	// controller (internal/adaptive) picks, per epoch, sequential execution
	// or the work-stealing pool at up to this many workers, from the graph's
	// shape and the measured cost of earlier epochs. It is also the width of
	// the canonical chain partitioning the fault-tolerance mechanisms record
	// under, so durable artifacts depend on Workers but never on what the
	// controller chose. Zero means 1.
	Workers int
	// CommitEvery is the log commitment interval in epochs (the paper's
	// commit marker cadence). Zero means 1. Must divide SnapshotEvery.
	CommitEvery int
	// SnapshotEvery is the checkpoint interval in epochs. Zero means 8.
	SnapshotEvery int
	// SnapshotBase is the incremental-checkpoint cadence: every SnapshotBase-th
	// snapshot marker persists a full base snapshot, the markers between them
	// persist only the partitions written since the previous marker (a delta
	// appended to the checkpoint log). Zero or 1 means every marker is a full
	// snapshot — the legacy behaviour. The cadence is positional (snapshot
	// ordinal modulo SnapshotBase), so a recovered incarnation computes the
	// same schedule without any carried state.
	SnapshotBase int
}

// Normalize applies the zero-value defaults in place and validates the
// marker relationship. It is idempotent; every configuration surface calls
// it exactly once on its embedded shape.
func (s *RunShape) Normalize() error {
	if s.Workers <= 0 {
		s.Workers = 1
	}
	if s.CommitEvery <= 0 {
		s.CommitEvery = 1
	}
	if s.SnapshotEvery <= 0 {
		s.SnapshotEvery = 8
	}
	if s.SnapshotBase <= 0 {
		s.SnapshotBase = 1
	}
	if s.SnapshotEvery%s.CommitEvery != 0 {
		return fmt.Errorf("types: SnapshotEvery (%d) must be a multiple of CommitEvery (%d)",
			s.SnapshotEvery, s.CommitEvery)
	}
	return nil
}

// GroupShape is RunShape lifted to a sharded deployment: the per-shard
// engine knobs plus the shard fan-out. The shard coordinator
// (internal/shard) embeds it instead of re-declaring a Shards field next to
// a RunShape; the crash-point sweep and `cmd/bench shard` shape their groups
// with it.
type GroupShape struct {
	// RunShape configures every shard's engine identically; punctuation
	// alignment across shards requires equal CommitEvery/SnapshotEvery, so
	// the group shape deliberately has one RunShape, not one per shard.
	RunShape
	// Shards is the engine fan-out. Zero means 1 (an unsharded group,
	// which behaves exactly like a single engine plus a coordinator).
	Shards int
}

// Normalize applies the zero-value defaults of both layers in place.
func (s *GroupShape) Normalize() error {
	if s.Shards <= 0 {
		s.Shards = 1
	}
	return s.RunShape.Normalize()
}

// NormalizeWorkers is the worker-count half of the zero-value rule for
// callers that only deal in parallelism (scheduler.Options). Zero or
// negative means 1, the same rule Normalize applies.
func NormalizeWorkers(w int) int {
	s := RunShape{Workers: w, CommitEvery: 1, SnapshotEvery: 1}
	_ = s.Normalize() // cannot fail: 1 divides 1
	return s.Workers
}
