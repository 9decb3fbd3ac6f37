// Package codec implements the compact binary encoding of every durable
// artifact: input events, WAL commands, dependency-graph records (DL), LSN
// vector records (LV), MorphStreamR view entries, and state snapshots.
//
// The format is a simple varint-based byte stream (encoding/binary's uvarint
// plus zig-zag for signed values). It is not self-describing: each artifact
// type has a fixed field order and readers/writers are kept side by side in
// this package so they cannot drift. Log sizes feed directly into the
// paper's runtime-overhead and memory-footprint comparisons, so the encoding
// is deliberately tight: the relative log sizes of WAL vs DL vs LV vs MSR
// are part of the reproduced result.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"morphstreamr/internal/types"
)

// ErrShortBuffer is returned when a decoder runs out of input mid-record.
var ErrShortBuffer = errors.New("codec: short buffer")

// bufPool recycles encode buffers across epochs. Every storage.Device
// implementation copies record payloads on Append/WriteBlob (the documented
// contract — see storage.Mem), so an encode buffer may return to the pool
// the moment its durable write completes; steady-state encoding then
// allocates nothing once the pooled buffers have grown to the workload's
// payload sizes.
var bufPool = sync.Pool{New: func() any { return &Buffer{b: make([]byte, 0, 1024)} }}

// GetBuffer returns a reset pooled encode buffer. Pair with PutBuffer once
// the encoded bytes have been handed off (written to a device, or copied).
func GetBuffer() *Buffer {
	w := bufPool.Get().(*Buffer)
	w.Reset()
	return w
}

// PutBuffer recycles a buffer obtained from GetBuffer. The caller must not
// touch the buffer — or any slice returned by its Bytes — afterwards.
func PutBuffer(w *Buffer) {
	if w != nil {
		bufPool.Put(w)
	}
}

// Buffer is an append-only encoder.
type Buffer struct {
	b []byte
}

// NewBuffer returns an encoder with the given capacity hint.
func NewBuffer(capHint int) *Buffer { return &Buffer{b: make([]byte, 0, capHint)} }

// Bytes returns the encoded content. The slice aliases the buffer.
func (w *Buffer) Bytes() []byte { return w.b }

// Len returns the number of encoded bytes.
func (w *Buffer) Len() int { return len(w.b) }

// Reset truncates the buffer for reuse.
func (w *Buffer) Reset() { w.b = w.b[:0] }

// Uvarint appends an unsigned varint.
func (w *Buffer) Uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

// Varint appends a zig-zag encoded signed varint.
func (w *Buffer) Varint(v int64) { w.b = binary.AppendVarint(w.b, v) }

// Byte appends one raw byte.
func (w *Buffer) Byte(v byte) { w.b = append(w.b, v) }

// Key appends a state key.
func (w *Buffer) Key(k types.Key) {
	w.Byte(byte(k.Table))
	w.Uvarint(uint64(k.Row))
}

// Reader decodes a byte stream produced by Buffer.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps an encoded byte slice.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Uvarint reads an unsigned varint; on error it records the error and
// returns 0, allowing straight-line decoding code with one final Err check.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = ErrShortBuffer
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zig-zag encoded signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.err = ErrShortBuffer
		return 0
	}
	r.off += n
	return v
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.err = ErrShortBuffer
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Key reads a state key.
func (r *Reader) Key() types.Key {
	t := r.Byte()
	row := r.Uvarint()
	return types.Key{Table: types.TableID(t), Row: uint32(row)}
}

// --- Events -----------------------------------------------------------

// Event appends one input event.
func (w *Buffer) Event(ev types.Event) {
	w.Uvarint(ev.Seq)
	w.Byte(byte(ev.Kind))
	w.Uvarint(uint64(len(ev.Keys)))
	for _, k := range ev.Keys {
		w.Key(k)
	}
	w.Uvarint(uint64(len(ev.Vals)))
	for _, v := range ev.Vals {
		w.Varint(v)
	}
}

// Event reads one input event into memory of its own.
func (r *Reader) Event() types.Event {
	var keys []types.Key
	var vals []types.Value
	return r.EventInto(&keys, &vals)
}

// EventInto reads one input event whose Keys and Vals are carved from the
// free capacity of the caller's slabs, which grow only when short. Each
// carved slice is capped at its own length, so an append to one event's
// payload can never write into its neighbour's.
func (r *Reader) EventInto(keys *[]types.Key, vals *[]types.Value) types.Event {
	var ev types.Event
	ev.Seq = r.Uvarint()
	ev.Kind = types.EventKind(r.Byte())
	nk := r.Uvarint()
	if r.err == nil && nk > uint64(r.Remaining()) {
		r.err = fmt.Errorf("codec: event key count %d exceeds input: %w", nk, ErrShortBuffer)
		return ev
	}
	if nk > 0 {
		ev.Keys = carve(keys, int(nk))
		for i := range ev.Keys {
			ev.Keys[i] = r.Key()
		}
	}
	nv := r.Uvarint()
	if r.err == nil && nv > uint64(r.Remaining()) {
		r.err = fmt.Errorf("codec: event val count %d exceeds input: %w", nv, ErrShortBuffer)
		return ev
	}
	if nv > 0 {
		ev.Vals = carve(vals, int(nv))
		for i := range ev.Vals {
			ev.Vals[i] = r.Varint()
		}
	}
	return ev
}

// carve extends *slab by n elements and returns them as a full slice. A
// slab too short starts over in one twice its size: what was carved from
// the old one stays where it is.
func carve[T any](slab *[]T, n int) []T {
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, max(2*cap(*slab), n))
	}
	lo := len(*slab)
	*slab = (*slab)[:lo+n]
	return (*slab)[lo : lo+n : lo+n]
}

// EncodeEvents frames a batch of events: count followed by each event.
func EncodeEvents(events []types.Event) []byte {
	w := NewBuffer(16 + 24*len(events))
	EncodeEventsInto(w, events)
	return w.Bytes()
}

// EncodeEventsInto appends the EncodeEvents framing to w — the arena-reuse
// variant of the input-persistence hot path: the engine encodes every
// epoch's input batch into one persistent buffer instead of allocating a
// fresh slice per epoch.
func EncodeEventsInto(w *Buffer, events []types.Event) {
	w.Uvarint(uint64(len(events)))
	for _, ev := range events {
		w.Event(ev)
	}
}

// DecodeEvents parses a batch encoded by EncodeEvents.
func DecodeEvents(b []byte) ([]types.Event, error) {
	r := NewReader(b)
	n := r.Uvarint()
	if r.Err() == nil && n > uint64(len(b)) {
		return nil, fmt.Errorf("codec: event count %d exceeds input: %w", n, ErrShortBuffer)
	}
	out := make([]types.Event, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.Event())
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	return out, r.Err()
}

// --- Snapshots --------------------------------------------------------

// EncodeSnapshot serialises a full store snapshot. Values are delta-encoded
// against the table's initial value, which compresses the common
// mostly-untouched-records case well under varint coding.
func EncodeSnapshot(tables []SnapshotTable) []byte {
	w := NewBuffer(1024)
	EncodeSnapshotInto(w, tables)
	return w.Bytes()
}

// EncodeSnapshotInto appends the EncodeSnapshot framing to w, letting the
// engine's snapshot writer reuse one buffer across snapshot markers.
func EncodeSnapshotInto(w *Buffer, tables []SnapshotTable) {
	w.Uvarint(uint64(len(tables)))
	for _, t := range tables {
		w.Byte(byte(t.ID))
		w.Uvarint(uint64(len(t.Vals)))
		w.Varint(t.Init)
		for _, v := range t.Vals {
			w.Varint(v - t.Init)
		}
	}
}

// SnapshotTable is the codec-level view of one table snapshot.
type SnapshotTable struct {
	ID   types.TableID
	Init types.Value
	Vals []types.Value
}

// DecodeSnapshot parses EncodeSnapshot output.
func DecodeSnapshot(b []byte) ([]SnapshotTable, error) {
	r := NewReader(b)
	n := r.Uvarint()
	if r.Err() == nil && n > uint64(len(b)) {
		return nil, fmt.Errorf("codec: table count %d exceeds input: %w", n, ErrShortBuffer)
	}
	out := make([]SnapshotTable, 0, n)
	for i := uint64(0); i < n; i++ {
		var t SnapshotTable
		t.ID = types.TableID(r.Byte())
		rows := r.Uvarint()
		t.Init = r.Varint()
		if r.Err() == nil && rows > uint64(r.Remaining())+1 {
			return nil, fmt.Errorf("codec: row count %d exceeds input: %w", rows, ErrShortBuffer)
		}
		// The guard above is skipped when a read already failed, so check
		// before allocating: rows may hold a huge value whose trailing
		// bytes were cut off (fuzz-found out-of-memory otherwise).
		if err := r.Err(); err != nil {
			return nil, err
		}
		t.Vals = make([]types.Value, rows)
		for j := range t.Vals {
			t.Vals[j] = t.Init + r.Varint()
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, r.Err()
}
