package main

import (
	"fmt"

	"morphstreamr/internal/shard"
)

// audit checks the closed rig's exactly-once promise: the server acked every
// tenant's batches once each and in sequence, and every event of every acked
// batch was delivered exactly once across all incarnations of the backend.
// The lanes check their own ack streams as they read them.
func (r *rig) audit(lanes []laneResult) error {
	next := make([]uint64, len(lanes))
	var limit uint64
	for _, a := range r.acks {
		if next[a.lane]++; a.batchSeq != next[a.lane] {
			return fmt.Errorf("audit: server acked lane %d batch %d, expected %d (duplicate or gap)", a.lane, a.batchSeq, next[a.lane])
		}
		limit = max(limit, a.firstSeq+a.nEvents)
	}
	for i, l := range lanes {
		if l.Acked > next[i] {
			return fmt.Errorf("audit: lane %d saw acks through batch %d, the server logged %d", i, l.Acked, next[i])
		}
	}
	// One counter per server-assigned sequence number, saturating at 2.
	delivered := make([]uint8, limit)
	for s := 0; s < r.sp.shards; s++ {
		for _, out := range r.be.AllDelivered(s) {
			if !shard.IsReplication(out) && out.EventSeq < limit && delivered[out.EventSeq] < 2 {
				delivered[out.EventSeq]++
			}
		}
	}
	for _, a := range r.acks {
		for q := a.firstSeq; q < a.firstSeq+a.nEvents; q++ {
			if delivered[q] != 1 {
				return fmt.Errorf("audit: event %d of lane %d batch %d was acked but delivered %d times", q, a.lane, a.batchSeq, delivered[q])
			}
		}
	}
	return nil
}
