package ftapi

import (
	"fmt"

	"morphstreamr/internal/metrics"
	"morphstreamr/internal/storage"
)

// DecodedEpoch is one committed epoch's decoded records of type T.
type DecodedEpoch[T any] struct {
	Epoch uint64
	Recs  T
}

// CommitGroup is one atomic group-commit record after decoding: the epochs
// it covers and their records. Mechanisms that replay per commit group
// (MSR) keep the structure; the others flatten it.
type CommitGroup[T any] struct {
	Lo, Hi uint64
	Epochs []DecodedEpoch[T]
}

// DecodeCommittedCursor decodes a mechanism's group-commit log: for every
// record within (snapEpoch, limit] it parses the group frame and runs the
// mechanism's decode on each epoch section, returning the groups in log
// order and the highest committed epoch seen.
//
// A decode failure in the log's final record is tolerated: the record is a
// torn tail — the device died mid-append during the group commit, so the
// commit never acknowledged, no outputs depending on it were released, and
// discarding it (recovery's logical truncation) is the only consistent
// choice. The whole group is dropped, never a prefix of it: group commits
// are all-or-nothing (see EncodeGroup). A decode failure anywhere before
// the final record is real corruption and returns an error naming the
// record.
//
// A limit of zero means no cap.
//
// The log streams through a cursor (the shape every mechanism's recovery
// path uses against the bounded segment store, where the cursor has already
// seeked past the checkpoint-covered prefix), so decode memory is bounded by
// one commit group at a time plus the decoded results; the raw log is never
// materialised. Torn-tail detection needs to know whether a failing record
// is the log's final one, which a stream learns by one-record lookahead: the
// cursor is always one record ahead of the group being decoded. The cursor
// is closed before returning.
func DecodeCommittedCursor[T any](cur storage.Cursor, snapEpoch, limit uint64,
	decode func(epoch uint64, payload []byte) (T, error)) (groups []CommitGroup[T], committed uint64, torn bool, err error) {

	defer cur.Close()
	committed = snapEpoch
	if limit == 0 {
		limit = ^uint64(0)
	}
	rec, ok, err := cur.Next()
	if err != nil {
		return nil, 0, false, fmt.Errorf("log read: %w", err)
	}
	for i := 0; ok; i++ {
		next, nok, nerr := cur.Next()
		if nerr != nil {
			return nil, 0, false, fmt.Errorf("log read after record %d: %w", i, nerr)
		}
		tail := !nok
		if rec.Epoch <= snapEpoch || rec.Epoch > limit {
			rec, ok = next, nok
			continue
		}
		eps, err := DecodeGroup(rec.Payload)
		if err != nil {
			if tail {
				return groups, committed, true, nil
			}
			return nil, 0, false, fmt.Errorf("log record %d (epoch %d): %w", i, rec.Epoch, err)
		}
		cg := CommitGroup[T]{}
		good := true
		for _, ep := range eps {
			rs, err := decode(ep.Epoch, ep.Payload)
			if err != nil {
				if tail {
					good = false // torn inside the group: drop it whole
					break
				}
				return nil, 0, false, fmt.Errorf("log record %d epoch %d: %w", i, ep.Epoch, err)
			}
			cg.Epochs = append(cg.Epochs, DecodedEpoch[T]{Epoch: ep.Epoch, Recs: rs})
			if cg.Lo == 0 || ep.Epoch < cg.Lo {
				cg.Lo = ep.Epoch
			}
			if ep.Epoch > cg.Hi {
				cg.Hi = ep.Epoch
			}
		}
		if !good {
			return groups, committed, true, nil
		}
		groups = append(groups, cg)
		if cg.Hi > committed {
			committed = cg.Hi
		}
		rec, ok = next, nok
	}
	return groups, committed, false, nil
}

// ReadCommitted is every mechanism's reload: it reads the FT log past the
// snapshot epoch, charging the read to rc's Reload as a serial phase, and
// decodes it with DecodeCommittedCursor under rc's commit limit.
func ReadCommitted[T any](rc *RecoveryContext, decode func([]byte) (T, error)) ([]CommitGroup[T], uint64, error) {
	readStop := metrics.SerialTimer(&rc.Breakdown.Reload, rc.Workers)
	cur, err := storage.ReadFrom(rc.Device, storage.LogFT, rc.SnapshotEpoch)
	readStop()
	if err != nil {
		return nil, 0, err
	}
	groups, committed, _, err := DecodeCommittedCursor(cur, rc.SnapshotEpoch, rc.CommitLimit,
		func(_ uint64, payload []byte) (T, error) { return decode(payload) })
	return groups, committed, err
}

// Flatten concatenates the records of every epoch of groups, in log order.
func Flatten[R any](groups []CommitGroup[[]R]) []R {
	var recs []R
	for _, cg := range groups {
		for _, ep := range cg.Epochs {
			recs = append(recs, ep.Recs...)
		}
	}
	return recs
}
