package serve

import (
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
)

// Backend is the processing engine behind the server: the pump feeds it one
// epoch per tick and keys acknowledgements to its committed punctuation
// frontier. Feed, Heal, Epoch, and Committed are called only from the
// pump goroutine; Coord only before start or after Close. Released outputs
// are the backend's own business: GroupBackend hands them to its group's
// sink, and the server reads none of them.
type Backend interface {
	// Feed processes one epoch (the events carry server-assigned global
	// sequences and live in recycled batch memory, so nothing of them may
	// be retained once Feed returns). A failure leaves the backend crashed
	// until Heal.
	Feed(events []types.Event) error
	// Epoch is the number of epochs completed; Committed is the durably
	// committed punctuation frontier acknowledgements key to; Horizon is the
	// replay horizon: a heal replays only epochs above it.
	Epoch() uint64
	Committed() uint64
	Horizon() uint64
	// Coord is the coordinator device the ingest manifest lives on.
	Coord() storage.Device
	// Heal recovers from a failed Feed, rebuilding from src every epoch
	// from the replay horizon on that it replays or re-feeds. It returns the
	// epoch the backend resumed from: every fed epoch above it was lost and
	// must be re-fed.
	Heal(procErr error, src types.Source) (uint64, error)
	// Close releases backend resources.
	Close()
}

// GroupBackend drives a shard.Group as the server's backend, with
// fail-stop injection seams for the chaos harness: kills are armed as
// atomic flags and consumed at the next Feed, so the crash lands on an
// epoch boundary on the pump goroutine — exactly the fail-stop model the
// group's recovery protocol is built for (a concurrent Crash mid-epoch
// would race the engines' own crash bookkeeping).
//
// Its group's sink counts each shard's application outputs by sequence
// (see AllDelivered) and then calls the sink of the config it was built
// with, if any.
type GroupBackend struct {
	cfg shard.Config
	g   *shard.Group
	del []deliveries // per shard, written by the goroutine running it

	killGroup atomic.Bool
	killShard atomic.Int64 // shard to crash at next Feed; <0 none
}

// newGroupBackend returns a backend whose cfg installs its counting sink.
func newGroupBackend(cfg shard.Config) *GroupBackend {
	b := &GroupBackend{del: make([]deliveries, max(cfg.Shards, 1))}
	host := cfg.Sink
	cfg.Sink = func(s int, ep uint64, outs []types.Output) {
		b.del[s].count(outs)
		if host != nil {
			host(s, ep, outs)
		}
	}
	b.cfg = cfg
	b.killShard.Store(-1)
	return b
}

// NewGroupBackend starts a fresh group. cfg.CoordDev doubles as the ingest
// manifest device.
func NewGroupBackend(cfg shard.Config) (*GroupBackend, error) {
	b := newGroupBackend(cfg)
	g, err := shard.NewGroup(b.cfg)
	if err != nil {
		return nil, err
	}
	b.g = g
	return b, nil
}

// RecoverGroupBackend cold-starts a backend from surviving devices: the
// group recovers in parallel from its shard logs, rebuilding the epochs it
// replays from the ingest manifest on cfg.CoordDev. It prices the recovery
// (shard.GroupRecover does), once per process; heals are unpriced.
func RecoverGroupBackend(cfg shard.Config) (*GroupBackend, error) {
	b := newGroupBackend(cfg)
	g, _, err := shard.GroupRecover(shard.RecoverConfig{Config: b.cfg, Source: manifestSource(cfg.CoordDev)})
	if err != nil {
		return nil, err
	}
	b.g = g
	return b, nil
}

// KillGroup arms a whole-group fail-stop at the next Feed.
func (b *GroupBackend) KillGroup() { b.killGroup.Store(true) }

// KillShard arms a single-shard fail-stop at the next Feed.
func (b *GroupBackend) KillShard(i int) { b.killShard.Store(int64(i)) }

// Feed implements Backend.
func (b *GroupBackend) Feed(events []types.Event) error {
	if b.killGroup.CompareAndSwap(true, false) {
		b.g.Crash()
	}
	if i := b.killShard.Swap(-1); i >= 0 && int(i) < b.g.Shards() {
		// Crash one engine just before feeding: ProcessEpoch surfaces it
		// as a *ShardError wrapping engine.ErrCrashed, the single-shard
		// heal path's entry condition.
		b.g.Engine(int(i)).Crash()
	}
	return b.g.ProcessEpoch(events)
}

// Epoch implements Backend.
func (b *GroupBackend) Epoch() uint64 { return b.g.Epoch() }

// Committed implements Backend.
func (b *GroupBackend) Committed() uint64 { return b.g.Committed() }

// Horizon implements Backend.
func (b *GroupBackend) Horizon() uint64 { return b.g.Horizon() }

// Coord implements Backend.
func (b *GroupBackend) Coord() storage.Device { return b.cfg.CoordDev }

// ShardOf implements the server's shardRouter capability: the shard that
// owns ev's routing key.
func (b *GroupBackend) ShardOf(ev types.Event) int { return b.g.Router().Of(ev.Keys[0]) }

// Tables implements the server's tableDecl capability: the tables the
// group's application declares, which bound every admitted key.
func (b *GroupBackend) Tables() []types.TableSpec { return b.g.App().Tables() }

// CommittedAt implements the server's commitTimer capability: when epoch
// ep was first covered by the committed frontier (pump goroutine only).
func (b *GroupBackend) CommittedAt(ep uint64) (time.Time, bool) { return b.g.CommittedAt(ep) }

// Group exposes the live group for tests.
func (b *GroupBackend) Group() *shard.Group { return b.g }

// Heal implements Backend through the group's heal ladder (shard.Group.Heal).
func (b *GroupBackend) Heal(procErr error, src types.Source) (uint64, error) {
	rep, err := b.g.Heal(procErr, src)
	if err != nil {
		return 0, err
	}
	return rep.Target, nil
}

// AllDelivered returns one Output{EventSeq} per delivery of an application
// output shard i released across all of its incarnations since the backend
// was built, a sequence delivered twice appearing twice: what exactly-once
// audits count. Only sequences are kept: the outputs carry no Kind or Vals.
func (b *GroupBackend) AllDelivered(i int) []types.Output {
	var outs []types.Output
	for w, word := range b.del[i].once {
		for ; word != 0; word &= word - 1 {
			seq := uint64(w*64 + bits.TrailingZeros64(word))
			for range 1 + b.del[i].extra[seq] {
				outs = append(outs, types.Output{EventSeq: seq})
			}
		}
	}
	return outs
}

// deliveries is one shard's exactly-once counter over server-assigned
// sequences: a bit per sequence delivered, and the extra deliveries of any
// sequence delivered more than once. Replication acknowledgements are not
// counted.
type deliveries struct {
	once  []uint64
	extra map[uint64]int
}

func (d *deliveries) count(outs []types.Output) {
	for _, o := range outs {
		if shard.IsReplication(o) {
			continue
		}
		w, bit := int(o.EventSeq/64), uint64(1)<<(o.EventSeq%64)
		if w >= len(d.once) {
			d.once = slices.Grow(d.once, w+1-len(d.once))[:w+1]
		}
		if d.once[w]&bit == 0 {
			d.once[w] |= bit
			continue
		}
		if d.extra == nil {
			d.extra = map[uint64]int{}
		}
		d.extra[o.EventSeq]++
	}
}

// Close implements Backend.
func (b *GroupBackend) Close() {
	for i := 0; i < b.g.Shards(); i++ {
		b.g.Engine(i).Close()
	}
}
