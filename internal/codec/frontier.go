package codec

import (
	"fmt"

	"morphstreamr/internal/types"
)

// ShardDelta is one shard's contribution to a group punctuation barrier:
// the owned keys its epoch wrote, with their values as of the barrier.
// Keys are in canonical (table, row) order so the encoding — and therefore
// the coordinator's frontier log — is byte-deterministic for a
// deterministic run, which the cross-shard determinism test compares
// directly.
type ShardDelta struct {
	Keys []types.Key
	Vals []types.Value
}

// EncodeFrontierInto appends one frontier record to w: the per-shard deltas
// (deltas[i] belongs to shard i; empty deltas encode as zero counts), then
// the group's sequence floor after the epoch, which an event-less next
// epoch sequences its replication below.
func EncodeFrontierInto(w *Buffer, deltas []ShardDelta, floor uint64) {
	w.Uvarint(uint64(len(deltas)))
	for _, d := range deltas {
		w.Uvarint(uint64(len(d.Keys)))
		for i, k := range d.Keys {
			w.Key(k)
			w.Varint(d.Vals[i])
		}
	}
	w.Uvarint(floor)
}

// DecodeFrontier parses EncodeFrontierInto output.
func DecodeFrontier(payload []byte) ([]ShardDelta, uint64, error) {
	r := NewReader(payload)
	ns := r.Uvarint()
	if r.Err() == nil && ns > uint64(r.Remaining())+1 {
		return nil, 0, fmt.Errorf("codec: frontier shard count %d exceeds input: %w", ns, ErrShortBuffer)
	}
	deltas := make([]ShardDelta, ns)
	for s := range deltas {
		nk := r.Uvarint()
		if r.Err() == nil && nk > uint64(r.Remaining()) {
			return nil, 0, fmt.Errorf("codec: frontier key count %d exceeds input: %w", nk, ErrShortBuffer)
		}
		if nk == 0 {
			continue
		}
		deltas[s].Keys = make([]types.Key, nk)
		deltas[s].Vals = make([]types.Value, nk)
		for i := uint64(0); i < nk; i++ {
			deltas[s].Keys[i] = r.Key()
			deltas[s].Vals[i] = r.Varint()
		}
	}
	floor := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, 0, fmt.Errorf("codec: frontier: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, 0, fmt.Errorf("codec: frontier: %d trailing bytes", r.Remaining())
	}
	return deltas, floor, nil
}
