package ftapi

import (
	"errors"
	"fmt"
	"sync"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/storage"
)

// ErrPoisoned marks errors surfaced by a poisoned GroupCommitter: an
// earlier durable group-commit write failed, and committing anything after
// the lost group would leave a silent gap in the log. Callers match it with
// errors.Is (and reach the original write failure with errors.As/Is through
// the chain); engine.Classify reads it to label the incident the shard
// group's heal records. A poisoned committer is never revived: the heal
// builds a fresh mechanism from the durable log.
var ErrPoisoned = errors.New("ftapi: group committer poisoned")

// GroupCommitter is the buffered group-commit machinery shared by every
// logging mechanism: sealed epochs buffer their encoded payloads, and a
// commit marker flushes the whole group as one atomic storage record
// (a torn group would leak released outputs — see package doc).
//
// A commit splits into a cheap synchronous prepare (snapshot the buffer,
// frame the record) and the durable write, which PrepareCommit returns as
// a closure that may run on another goroutine — the "logging off the
// critical path" direction the paper takes from Lineage Stash (Section
// VII). Commit runs both in line.
type GroupCommitter struct {
	dev   storage.Device
	bytes *metrics.Bytes
	// bufCategory accounts buffered (live) bytes; logCategory accounts
	// durable bytes written.
	bufCategory string
	logCategory string

	buffered []EpochPayload
	bufBytes int64

	// owned tracks the pooled encode buffers backing SealInto payloads.
	// They return to the codec pool when their bytes become durable (the
	// write closure ran — devices copy payloads on Append).
	owned []*codec.Buffer

	// state is shared with prepared write closures (which may run on
	// another goroutine): a failed durable write poisons the committer, so
	// that later commits surface the failure instead of silently writing a
	// log with the failed group's epochs missing — a gap recovery would
	// misread as "those epochs never committed" while their successors did.
	state *commitState
}

type commitState struct {
	mu     sync.Mutex
	failed error
}

func (s *commitState) fail(err error) {
	s.mu.Lock()
	if s.failed == nil {
		s.failed = err
	}
	s.mu.Unlock()
}

func (s *commitState) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// NewGroupCommitter creates the machinery for one mechanism.
func NewGroupCommitter(dev storage.Device, bytes *metrics.Bytes, bufCategory, logCategory string) GroupCommitter {
	return GroupCommitter{dev: dev, bytes: bytes, bufCategory: bufCategory, logCategory: logCategory,
		state: &commitState{}}
}

// Buffer appends one sealed epoch's encoded payload.
func (g *GroupCommitter) Buffer(epoch uint64, payload []byte) {
	g.buffered = append(g.buffered, EpochPayload{Epoch: epoch, Payload: payload})
	g.bufBytes += int64(len(payload))
	g.bytes.Alloc(g.bufCategory, int64(len(payload)))
}

// SealInto is the arena-reuse variant of Buffer: the mechanism's encoder
// writes the epoch payload directly into a pooled codec buffer that the
// committer owns until the group's durable write completes. Steady-state
// sealing then recycles a handful of grown buffers instead of allocating a
// fresh payload slice per epoch.
func (g *GroupCommitter) SealInto(epoch uint64, encode func(*codec.Buffer)) {
	w := codec.GetBuffer()
	encode(w)
	g.buffered = append(g.buffered, EpochPayload{Epoch: epoch, Payload: w.Bytes()})
	g.owned = append(g.owned, w)
	g.bufBytes += int64(w.Len())
	g.bytes.Alloc(g.bufCategory, int64(w.Len()))
}

// Buffered reports how many sealed epochs await commit.
func (g *GroupCommitter) Buffered() int { return len(g.buffered) }

// Commit synchronously persists the buffered group.
func (g *GroupCommitter) Commit(hi uint64) error {
	write, ok := g.PrepareCommit(hi)
	if !ok {
		return nil
	}
	return write()
}

// Failed reports the error of the first durable group-commit write that
// failed, if any. A poisoned committer refuses further commits: the failed
// group's epochs are gone from the buffer, so anything written after them
// would leave a silent gap in the log.
func (g *GroupCommitter) Failed() error { return g.state.err() }

// PrepareCommit snapshots and frames the buffered group, clears the
// buffer, and returns the durable write as a closure. The closure touches
// only the storage device, the byte accounting, and the shared failure
// state (all thread-safe), so it may run on another goroutine while the
// mechanism seals later epochs. ok is false when nothing is buffered; a
// poisoned committer returns a closure that surfaces the original failure.
func (g *GroupCommitter) PrepareCommit(hi uint64) (write func() error, ok bool) {
	if err := g.state.err(); err != nil {
		logCat := g.logCategory
		return func() error {
			return fmt.Errorf("%s: commit: %w: %w", logCat, ErrPoisoned, err)
		}, true
	}
	if len(g.buffered) == 0 {
		return nil, false
	}
	gw := codec.GetBuffer()
	EncodeGroupInto(gw, g.buffered)
	payload := gw.Bytes()
	freed := g.bufBytes
	owned := g.owned
	g.buffered, g.bufBytes, g.owned = nil, 0, nil
	dev, bytes, bufCat, logCat, state := g.dev, g.bytes, g.bufCategory, g.logCategory, g.state
	return func() error {
		// The group left the buffer at prepare time, so its live bytes are
		// released whether or not the write lands; on failure the payload is
		// dropped (and the committer poisoned), not retained. The device
		// copies the payload on Append, so the pooled buffers behind the
		// frame and the sealed epochs recycle here either way.
		defer func() {
			bytes.Free(bufCat, freed)
			codec.PutBuffer(gw)
			for _, w := range owned {
				codec.PutBuffer(w)
			}
		}()
		if err := dev.Append(storage.LogFT, storage.Record{Epoch: hi, Payload: payload}); err != nil {
			state.fail(err)
			return fmt.Errorf("%s: commit: %w", logCat, err)
		}
		bytes.Written(logCat, int64(len(payload)))
		return nil
	}, true
}
