package layers

import (
	"sync/atomic"
	"time"

	"morphstreamr/internal/serve"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/types"
)

// Backend times the pump's calls into the group backend: every Feed is a
// serve span ("feed", or "heartbeat" when it carries no events) and every
// Heal a recovery span. Embedding keeps the optional capabilities the
// server probes for (ShardOf, CommittedAt) and the kill switches.
type Backend struct {
	*serve.GroupBackend
	t     *Tracer
	cause *atomic.Int64
}

// Feed implements serve.Backend.
func (b *Backend) Feed(events []types.Event) error {
	name := "feed"
	if len(events) == 0 {
		name = "heartbeat"
	}
	start := time.Now()
	i := b.t.Add(Span{Layer: Serve, Name: name, Start: start, Parent: -1, ID: b.Epoch() + 1})
	b.cause.Store(int64(i))
	err := b.GroupBackend.Feed(events)
	b.cause.Store(-1)
	b.t.SetDur(i, time.Since(start), len(events))
	return err
}

// Heal implements serve.Backend.
func (b *Backend) Heal(procErr error, src shard.Source) (uint64, error) {
	start := time.Now()
	i := b.t.Add(Span{Layer: Recovery, Name: "heal", Start: start, Parent: -1, ID: b.Epoch() + 1})
	b.cause.Store(int64(i))
	ep, err := b.GroupBackend.Heal(procErr, src)
	b.cause.Store(-1)
	b.t.SetDur(i, time.Since(start), 0)
	return ep, err
}
