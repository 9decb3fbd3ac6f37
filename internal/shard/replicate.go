package shard

import (
	"fmt"
	"slices"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/types"
)

// KindReplicate is the reserved event kind carrying cross-shard state
// propagation: a frontier write-set chunk, applied as plain puts. It lives
// at the top of the kind space; application kinds are small iota values,
// so the coordinator rejects any input event that claims it.
const KindReplicate types.EventKind = 0xFF

// maxReplicateKeys bounds one replication event's key count. Operation
// indices are uint8 (at most 256 ops per transaction), so frontier deltas
// chunk into events of at most this many puts.
const maxReplicateKeys = 100

// App wraps an application with the replication-event handler: events of
// KindReplicate preprocess into transactions of unconditional puts
// (types.FnPut never aborts), every other event passes through unchanged.
//
// Replication-as-events is the load-bearing trick of the shard layer:
// because frontier propagation rides the ordinary event path, it is
// covered by every fault-tolerance mechanism's records and replayed by
// stock engine recovery, which is what lets the group recover every shard
// in parallel with unmodified engine.Recover calls. Its only durable form
// is the frontier log: a recovery rebuilds each epoch's replication events
// from the previous epoch's record (see replay in recovery.go).
type App struct {
	inner types.App
}

// WrapApp builds the shard-level view of an application.
func WrapApp(inner types.App) *App { return &App{inner: inner} }

// Name implements types.App.
func (a *App) Name() string { return a.inner.Name() + "+shard" }

// Tables implements types.App.
func (a *App) Tables() []types.TableSpec { return a.inner.Tables() }

// Preprocess implements types.App.
func (a *App) Preprocess(ev types.Event) types.Txn { return types.NewTxn(ev, a.AppendOps(nil, ev)) }

// AppendOps implements types.App. A replication event's transaction puts
// each carried key to its carried value; all ops after index 0 logically
// depend on op 0, which is itself a put and can never abort.
func (a *App) AppendOps(ops []types.Operation, ev types.Event) []types.Operation {
	if ev.Kind != KindReplicate {
		return a.inner.AppendOps(ops, ev)
	}
	for i, k := range ev.Keys {
		ops = append(ops, ev.Op(i, k, types.FnPut, ev.Vals[i]))
	}
	return ops
}

// Postprocess implements types.App. Replication events acknowledge with an
// empty output of their kind; every downstream verifier filters these out
// of the application output stream (see IsReplication).
func (a *App) Postprocess(vals []types.Value, t *types.ExecutedTxn) (types.Output, []types.Value) {
	if t.Txn.Event.Kind != KindReplicate {
		return a.inner.Postprocess(vals, t)
	}
	return types.Output{EventSeq: t.Txn.ID, Kind: KindReplicate}, vals
}

// IsReplication reports whether an output is a replication acknowledgement
// rather than an application output.
func IsReplication(out types.Output) bool { return out.Kind == KindReplicate }

// mergeForeign merges every shard's delta but dst's own into one delta in
// ascending key order, reusing out's storage. Barrier deltas arrive sorted
// and ownership-disjoint (each holds only keys its shard owns), so this is a
// k-way merge, not a map and a sort — but not a concatenation either: with
// two tables, shard 0's table-1 keys sort after shard 1's table-0 keys.
// Should two deltas ever carry the same key (a frontier record from a
// foreign writer), the later shard's value wins, as it did when the merge
// went through a map.
func mergeForeign(out codec.ShardDelta, dst int, deltas []codec.ShardDelta) codec.ShardDelta {
	total := 0
	for src, d := range deltas {
		if src != dst {
			total += len(d.Keys)
		}
	}
	out.Keys, out.Vals = slices.Grow(out.Keys[:0], total), slices.Grow(out.Vals[:0], total)
	var posBuf [16]int // wider groups take the heap
	pos := posBuf[:]
	if len(deltas) > len(pos) {
		pos = make([]int, len(deltas))
	}
	for total > 0 {
		best := -1
		for src, d := range deltas {
			if src == dst || pos[src] == len(d.Keys) {
				continue
			}
			if best < 0 || !deltas[best].Keys[pos[best]].Less(d.Keys[pos[src]]) {
				best = src
			}
		}
		if best < 0 {
			break
		}
		k := deltas[best].Keys[pos[best]]
		out.Keys = append(out.Keys, k)
		out.Vals = append(out.Vals, deltas[best].Vals[pos[best]])
		for src, d := range deltas {
			if src != dst && pos[src] < len(d.Keys) && d.Keys[pos[src]] == k {
				pos[src]++
			}
		}
	}
	return out
}

// buildReplication turns the foreign portion of a barrier's deltas into
// the replication events shard dst ingests next epoch, in fresh memory; see
// replicationEvents for their shape.
func buildReplication(dst int, deltas []codec.ShardDelta, minSeq uint64) ([]types.Event, error) {
	return replicationEvents(nil, mergeForeign(codec.ShardDelta{}, dst, deltas), minSeq)
}

// minSeqFor returns the replication sequence ceiling of an epoch fed
// events and raises the sequence floor past them.
func (g *Group) minSeqFor(events []types.Event) uint64 {
	for _, ev := range events {
		g.seqFloor = max(g.seqFloor, ev.Seq+1)
	}
	return ceiling(events, g.seqFloor)
}

// ceiling is the replication sequence ceiling of an epoch fed events over
// sequence floor: their lowest sequence, or the floor when there are none.
func ceiling(events []types.Event, floor uint64) uint64 {
	for i, ev := range events {
		if i == 0 || ev.Seq < floor {
			floor = ev.Seq
		}
	}
	return floor
}

// replicationEvents chunks a merged foreign delta into replication events,
// appended to dst. Sequence numbers occupy [minSeq-n, minSeq): strictly
// below the epoch's first real sequence number, so every replicated put
// orders (by temporal dependency) before every real operation of the
// epoch, and frontier reads observe the consistent committed frontier. An
// epoch without real events orders against the sequence floor instead; with
// no floor either (a group recovered from shards that reloaded no events)
// there is nothing to order against and it takes [1, n]. Sequence space
// below an epoch is finite; an epoch too small to host its replication
// fan-in is an error, not a silent reorder. The events alias flat's slices.
func replicationEvents(dst []types.Event, flat codec.ShardDelta, minSeq uint64) ([]types.Event, error) {
	n := (len(flat.Keys) + maxReplicateKeys - 1) / maxReplicateKeys
	if minSeq == 0 {
		minSeq = uint64(n) + 1
	}
	if uint64(n) > minSeq {
		return nil, fmt.Errorf("shard: %d replication events do not fit below sequence %d (epoch too small for the replication fan-in)", n, minSeq)
	}
	for i := 0; i < n; i++ {
		lo := i * maxReplicateKeys
		hi := min(lo+maxReplicateKeys, len(flat.Keys))
		dst = append(dst, types.Event{
			Seq:  minSeq - uint64(n) + uint64(i),
			Kind: KindReplicate,
			Keys: flat.Keys[lo:hi:hi],
			Vals: flat.Vals[lo:hi:hi],
		})
	}
	return dst, nil
}
