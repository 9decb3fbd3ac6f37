package engine

import (
	"fmt"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/store"
	"morphstreamr/internal/types"
)

// Incremental checkpoints (PACMAN-style delta snapshots on the bounded
// segment store). With SnapshotBase > 1 the engine persists a full base
// snapshot only on every SnapshotBase-th snapshot marker; the markers in
// between append a delta — the partitions written since the previous
// marker — to the checkpoint log. Recovery composes base + the ascending
// delta chain to reach the committed snapshot frontier, so checkpoint bytes
// scale with the write working set instead of total state.
//
// The base cadence is positional (snapshot ordinal modulo SnapshotBase):
// stateless across incarnations, so a recovered engine re-derives the exact
// pre-crash schedule from the epoch number alone.

// snapshotIsBase reports whether the marker at ep persists a full base.
func (e *Engine) snapshotIsBase(ep uint64) bool {
	if e.cfg.SnapshotBase <= 1 || !e.st.DirtyTracking() {
		return true
	}
	ord := ep / uint64(e.cfg.SnapshotEvery)
	return ord%uint64(e.cfg.SnapshotBase) == 0
}

// partDelta is one partition's section of a decoded delta record; vals are
// still relative to the table's initial value (applyDelta adds it back).
type partDelta struct {
	ref  store.PartitionRef
	vals []types.Value
}

// encodeDeltaInto frames the store's dirty partitions: a count, then per
// partition its table, partition index, and values. Partition order is the
// store's deterministic (table, partition) sort, so delta bytes are pinned
// by the byte-determinism harness like every other durable write. Values
// encode relative to the table's initial value, like the snapshot codec:
// rows a dirty partition happens to hold at init cost one byte each, so
// delta bytes track the write working set, not the partition grain.
func encodeDeltaInto(w *codec.Buffer, st *store.Store) (parts int) {
	inits := tableInits(st)
	dirty := st.DirtyPartitions()
	w.Uvarint(uint64(len(dirty)))
	for _, ref := range dirty {
		vals := st.PartitionVals(ref)
		init := inits[ref.Table]
		w.Byte(byte(ref.Table))
		w.Uvarint(uint64(ref.Part))
		w.Uvarint(uint64(len(vals)))
		for _, v := range vals {
			w.Varint(int64(v - init))
		}
	}
	return len(dirty)
}

// tableInits maps each table to its initial row value, the bias the delta
// codec encodes against.
func tableInits(st *store.Store) map[types.TableID]types.Value {
	inits := make(map[types.TableID]types.Value)
	for _, sp := range st.Specs() {
		inits[sp.ID] = sp.Init
	}
	return inits
}

// decodeDelta parses one delta record.
func decodeDelta(payload []byte) ([]partDelta, error) {
	r := codec.NewReader(payload)
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > uint64(len(payload)) {
		return nil, fmt.Errorf("delta: partition count %d overruns payload", n)
	}
	out := make([]partDelta, 0, n)
	for i := uint64(0); i < n; i++ {
		d := partDelta{ref: store.PartitionRef{
			Table: types.TableID(r.Byte()),
			Part:  uint32(r.Uvarint()),
		}}
		nv := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if nv > store.DirtyPartitionRows {
			return nil, fmt.Errorf("delta: partition %d claims %d values", i, nv)
		}
		d.vals = make([]types.Value, nv)
		for j := uint64(0); j < nv; j++ {
			d.vals[j] = types.Value(r.Varint())
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("delta: %d trailing bytes", r.Remaining())
	}
	return out, nil
}

// composeDeltas streams the checkpoint log above the base epoch and applies
// each delta in order, returning the resulting snapshot frontier and how
// many values were restored. A decode failure on the final record is a torn
// delta append (the marker never completed; no GC acted on it) and is
// logically truncated; anywhere earlier it is corruption.
func (e *Engine) composeDeltas(base uint64) (frontier uint64, restored int, err error) {
	frontier = base
	cur, err := storage.ReadFrom(e.cfg.Device, storage.LogCkpt, base)
	if err != nil {
		return 0, 0, fmt.Errorf("engine: recover deltas: %w", err)
	}
	defer cur.Close()
	rec, ok, err := cur.Next()
	if err != nil {
		return 0, 0, fmt.Errorf("engine: recover deltas: %w", err)
	}
	for ok {
		next, nok, nerr := cur.Next()
		if nerr != nil {
			return 0, 0, fmt.Errorf("engine: recover deltas: %w", nerr)
		}
		parts, derr := decodeDelta(rec.Payload)
		if derr != nil {
			if !nok {
				return frontier, restored, nil // torn tail: marker never completed
			}
			return 0, 0, fmt.Errorf("engine: recover delta epoch %d: %w", rec.Epoch, derr)
		}
		if rec.Epoch <= frontier {
			return 0, 0, fmt.Errorf("engine: recover deltas: epoch %d not above frontier %d",
				rec.Epoch, frontier)
		}
		if err := applyDelta(e.st, parts); err != nil {
			return 0, 0, fmt.Errorf("engine: recover delta epoch %d: %w", rec.Epoch, err)
		}
		for _, d := range parts {
			restored += len(d.vals)
		}
		frontier = rec.Epoch
		rec, ok = next, nok
	}
	return frontier, restored, nil
}

// applyDelta restores one decoded delta into the store, undoing the
// relative-to-init encoding.
func applyDelta(st *store.Store, parts []partDelta) error {
	inits := tableInits(st)
	for _, d := range parts {
		init := inits[d.ref.Table]
		vals := make([]types.Value, len(d.vals))
		for i, v := range d.vals {
			vals[i] = v + init
		}
		if !st.RestorePartition(d.ref, vals) {
			return fmt.Errorf("delta: partition {table %d part %d} does not fit the store",
				d.ref.Table, d.ref.Part)
		}
	}
	return nil
}
