// Package serve is the network serving layer: a TCP ingestion front-end
// that accepts event batches from many concurrent clients, tags them per
// tenant, feeds them onto the sharded engine path, and returns exactly-once
// acknowledgements keyed to commit punctuation — an ack is sent only once
// the covering epoch is durably committed on every shard, so no ack is ever
// emitted for a batch that can fail to survive recovery.
//
// # Wire protocol
//
// Every frame is one uvarint length prefix followed by exactly that many
// bytes: a one-byte frame type and a type-specific body in internal/codec's
// varint vocabulary. A connection opens with Hello (the tenant name); the
// server answers HelloAck carrying the tenant's acked high-watermark, which
// is how a reconnecting client learns which batches survived — batches it
// re-sends at or below the watermark are answered with an immediate
// duplicate ack instead of being fed twice.
//
// Submit carries a client-assigned, per-tenant contiguous batch sequence
// number plus the batch events. The server admits batches strictly in
// sequence order (seq == maxSeen+1); a gap is answered with
// Slowdown(reason=order) naming the sequence to resend from. Admission
// failures are always explicit — Slowdown frames with a retry-after hint
// and a reason (rate, queue, degraded, order) — never silent drops.
package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/types"
)

// FrameType identifies a wire frame.
type FrameType byte

const (
	// FrameHello opens a connection: body is the tenant name.
	FrameHello FrameType = 0x01
	// FrameHelloAck answers Hello: body is the tenant's acked batch
	// high-watermark and the server's committed punctuation frontier.
	FrameHelloAck FrameType = 0x02
	// FrameSubmit carries one batch: batch sequence number plus events.
	FrameSubmit FrameType = 0x03
	// FrameAck acknowledges one batch as durably committed: batch sequence
	// number plus the committed epoch that covers it.
	FrameAck FrameType = 0x04
	// FrameSlowdown rejects one batch with an explicit reason and a
	// retry-after hint; BatchSeq is the sequence to resend from.
	FrameSlowdown FrameType = 0x05
	// FrameError reports a protocol violation before the server closes the
	// connection.
	FrameError FrameType = 0x06
	// FramePing and FramePong are liveness probes.
	FramePing FrameType = 0x07
	FramePong FrameType = 0x08
)

// Submit frame flag bits (an optional trailing uvarint after the events;
// older encoders simply omit it, which strict decode accepts as flags 0).
const (
	// SubmitFlagSampled asks the server to trace this batch's journey
	// end-to-end regardless of its server-side sampling modulus.
	SubmitFlagSampled uint64 = 1 << 0
)

// SlowReason says why a Submit was rejected.
type SlowReason byte

const (
	// SlowRate: the tenant's token bucket is empty.
	SlowRate SlowReason = 1
	// SlowQueue: the tenant's ingest queue is at capacity.
	SlowQueue SlowReason = 2
	// SlowDegraded: the server is mid-heal and this tenant's priority is
	// below the shedding threshold.
	SlowDegraded SlowReason = 3
	// SlowOrder: the batch sequence leaves a gap; resend from BatchSeq.
	SlowOrder SlowReason = 4
)

func (r SlowReason) String() string {
	switch r {
	case SlowRate:
		return "rate"
	case SlowQueue:
		return "queue"
	case SlowDegraded:
		return "degraded"
	case SlowOrder:
		return "order"
	default:
		return fmt.Sprintf("reason(%d)", byte(r))
	}
}

// Wire limits. Oversized frames are rejected before allocation, so a
// hostile length prefix cannot balloon memory.
const (
	// DefaultMaxFrame bounds one frame's encoded size.
	DefaultMaxFrame = 1 << 20
	// MaxTenantName bounds the Hello tenant name.
	MaxTenantName = 64
	// MaxBatchEvents bounds one Submit's event count.
	MaxBatchEvents = 8192
	// maxErrorMsg bounds an Error frame's message.
	maxErrorMsg = 256
)

// Protocol errors.
var (
	// ErrFrameTooLarge rejects a frame whose length prefix exceeds the
	// connection's frame limit.
	ErrFrameTooLarge = errors.New("serve: frame exceeds size limit")
	// ErrBadFrame rejects a frame that does not decode exactly: unknown
	// type, truncated body, trailing bytes, or out-of-range fields.
	ErrBadFrame = errors.New("serve: malformed frame")
)

// Frame is one decoded wire frame; which fields are meaningful depends on
// Type (see the frame type constants).
type Frame struct {
	Type FrameType

	// Tenant is the Hello tenant name.
	Tenant string
	// Watermark is the HelloAck acked batch high-watermark.
	Watermark uint64
	// Epoch is the HelloAck committed frontier, or the Ack covering epoch.
	Epoch uint64
	// BatchSeq is the Submit/Ack batch sequence, or the Slowdown
	// resend-from sequence.
	BatchSeq uint64
	// Events is the Submit batch payload, carved from one batch's storage;
	// a session's batches are pooled, valid until the server recycles them.
	Events []types.Event
	// Flags are the Submit frame's option bits (SubmitFlag*); 0 when the
	// optional trailing flags field is absent.
	Flags uint64
	// RetryAfterMs is the Slowdown retry hint in milliseconds.
	RetryAfterMs uint64
	// Reason is the Slowdown reason.
	Reason SlowReason
	// Code and Msg describe an Error frame.
	Code uint64
	Msg  string
}

// ReadFrame reads one length-prefixed frame payload (type byte + body) from
// br, enforcing the size limit before any payload allocation.
func ReadFrame(br *bufio.Reader, max int) ([]byte, error) { return readFrame(br, max, nil) }

// readFrame is ReadFrame into buf's storage when it is large enough. A
// session's read loop passes the payload it read last: decodeFrame copies
// everything it returns, so the previous payload is dead once it returns.
func readFrame(br *bufio.Reader, max int, buf []byte) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: empty frame", ErrBadFrame)
	}
	if n > uint64(max) {
		return nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, n, max)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// DecodeFrame decodes one frame payload strictly: every byte must be
// consumed, every count must fit the remaining payload (so a hostile count
// cannot force a large allocation), and Submit events must be routable
// (at least one key, no reserved replication kind).
func DecodeFrame(b []byte) (Frame, error) { return decodeFrame(b, new(batch)) }

// decodeFrame is DecodeFrame with a Submit's events decoded into into's
// storage, reusing whatever it already has.
func decodeFrame(b []byte, into *batch) (Frame, error) {
	var f Frame
	if len(b) == 0 {
		return f, fmt.Errorf("%w: empty frame", ErrBadFrame)
	}
	f.Type = FrameType(b[0])
	r := codec.NewReader(b[1:])
	switch f.Type {
	case FrameHello:
		var ok bool
		if f.Tenant, ok = readString(r, MaxTenantName); !ok {
			return f, fmt.Errorf("%w: bad tenant name", ErrBadFrame)
		}
	case FrameHelloAck:
		f.Watermark = r.Uvarint()
		f.Epoch = r.Uvarint()
	case FrameSubmit:
		f.BatchSeq = r.Uvarint()
		n := r.Uvarint()
		if n == 0 {
			return f, fmt.Errorf("%w: empty batch", ErrBadFrame)
		}
		if n > MaxBatchEvents || n > uint64(r.Remaining()) {
			return f, fmt.Errorf("%w: batch of %d events exceeds limits", ErrBadFrame, n)
		}
		f.Events, into.keys, into.vals = slices.Grow(into.ev[:0], int(n)), into.keys[:0], into.vals[:0]
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			ev := r.EventInto(&into.keys, &into.vals)
			if r.Err() != nil {
				break
			}
			if ev.Kind == shard.KindReplicate {
				return f, fmt.Errorf("%w: event uses reserved replication kind", ErrBadFrame)
			}
			if len(ev.Keys) == 0 {
				return f, fmt.Errorf("%w: event has no routing key", ErrBadFrame)
			}
			f.Events = append(f.Events, ev)
		}
		into.ev = f.Events
		if r.Err() == nil && r.Remaining() > 0 {
			// Optional trailing flags uvarint: absent on frames from older
			// encoders, consumed here so strict decode stays exact.
			f.Flags = r.Uvarint()
		}
	case FrameAck:
		f.BatchSeq = r.Uvarint()
		f.Epoch = r.Uvarint()
	case FrameSlowdown:
		f.BatchSeq = r.Uvarint()
		f.RetryAfterMs = r.Uvarint()
		f.Reason = SlowReason(r.Byte())
		if r.Err() == nil && (f.Reason < SlowRate || f.Reason > SlowOrder) {
			return f, fmt.Errorf("%w: unknown slowdown reason %d", ErrBadFrame, f.Reason)
		}
	case FrameError:
		f.Code = r.Uvarint()
		var ok bool
		if f.Msg, ok = readString(r, maxErrorMsg); !ok {
			return f, fmt.Errorf("%w: bad error message", ErrBadFrame)
		}
	case FramePing, FramePong:
		// No body.
	default:
		return f, fmt.Errorf("%w: unknown frame type 0x%02x", ErrBadFrame, b[0])
	}
	if r.Err() != nil {
		return f, fmt.Errorf("%w: %v", ErrBadFrame, r.Err())
	}
	if r.Remaining() != 0 {
		return f, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, r.Remaining())
	}
	return f, nil
}

// readString reads a uvarint-prefixed string bounded by max; the length is
// checked against the remaining payload before any allocation.
func readString(r *codec.Reader, max int) (string, bool) {
	n := r.Uvarint()
	if r.Err() != nil || n > uint64(max) || n > uint64(r.Remaining()) {
		return "", false
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = r.Byte()
	}
	return string(b), r.Err() == nil
}

// putString appends a uvarint-prefixed string.
func putString(w *codec.Buffer, s string) {
	w.Uvarint(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		w.Byte(s[i])
	}
}

// encode assembles one wire frame: length prefix, type byte, body.
func encode(t FrameType, body func(*codec.Buffer)) []byte {
	b := codec.GetBuffer()
	defer codec.PutBuffer(b)
	b.Byte(byte(t))
	if body != nil {
		body(b)
	}
	out := make([]byte, 0, b.Len()+binary.MaxVarintLen64)
	out = binary.AppendUvarint(out, uint64(b.Len()))
	return append(out, b.Bytes()...)
}

// EncodeHello encodes a Hello frame.
func EncodeHello(tenant string) []byte {
	return encode(FrameHello, func(w *codec.Buffer) { putString(w, tenant) })
}

// EncodeHelloAck encodes a HelloAck frame.
func EncodeHelloAck(watermark, epoch uint64) []byte {
	return encode(FrameHelloAck, func(w *codec.Buffer) {
		w.Uvarint(watermark)
		w.Uvarint(epoch)
	})
}

// EncodeSubmit encodes a Submit frame.
func EncodeSubmit(batchSeq uint64, events []types.Event) []byte {
	return EncodeSubmitFlags(batchSeq, events, 0)
}

// EncodeSubmitFlags encodes a Submit frame with option bits. Zero flags
// omit the trailing field, producing the exact legacy encoding.
func EncodeSubmitFlags(batchSeq uint64, events []types.Event, flags uint64) []byte {
	return encode(FrameSubmit, func(w *codec.Buffer) {
		w.Uvarint(batchSeq)
		codec.EncodeEventsInto(w, events)
		if flags != 0 {
			w.Uvarint(flags)
		}
	})
}

// EncodeAck encodes an Ack frame.
func EncodeAck(batchSeq, epoch uint64) []byte {
	return encode(FrameAck, func(w *codec.Buffer) {
		w.Uvarint(batchSeq)
		w.Uvarint(epoch)
	})
}

// EncodeSlowdown encodes a Slowdown frame.
func EncodeSlowdown(batchSeq, retryAfterMs uint64, reason SlowReason) []byte {
	return encode(FrameSlowdown, func(w *codec.Buffer) {
		w.Uvarint(batchSeq)
		w.Uvarint(retryAfterMs)
		w.Byte(byte(reason))
	})
}

// EncodeError encodes an Error frame.
func EncodeError(code uint64, msg string) []byte {
	if len(msg) > maxErrorMsg {
		msg = msg[:maxErrorMsg]
	}
	return encode(FrameError, func(w *codec.Buffer) {
		w.Uvarint(code)
		putString(w, msg)
	})
}

// EncodePing and EncodePong encode liveness probes.
func EncodePing() []byte { return encode(FramePing, nil) }
func EncodePong() []byte { return encode(FramePong, nil) }
