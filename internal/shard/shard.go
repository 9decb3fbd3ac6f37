// Package shard scales the engine out across N shards: a coordinator
// routes events by key over internal/partition's range maps, runs one
// engine per shard (each with its own storage device, mechanism, and
// logs), and aligns the shards' epochs with punctuation barriers so
// cross-shard reads observe a consistent committed frontier.
//
// # Epoch protocol
//
// Every group epoch is one lockstep round:
//
//  1. route the global batch to per-shard sub-batches by each event's
//     first key (the write target; applications run sharded must be
//     write-local — every key a transaction writes lives in the shard
//     that owns its routing key, a property the barrier verifies);
//  2. prepend each shard's replication events — the previous barrier's
//     foreign write-sets as KindReplicate puts, sequenced below the
//     epoch's real events so frontier writes order before every real
//     read (see replicate.go);
//  3. process all shards (concurrently by default), then barrier;
//  4. extract each shard's owned write-set delta, append one frontier
//     record to the coordinator's own durable log, and stage the deltas
//     as the next epoch's replication payload.
//
// Cross-shard reads therefore observe other shards' state as of the last
// barrier — exactly the punctuation-aligned consistent frontier the
// protocol promises — and because replication rides the ordinary event
// path, every fault-tolerance mechanism logs and replays it with zero
// shard-specific code.
//
// # Recovery
//
// Shard engines keep no input log: the host persists each event once (the
// serving layer's ingest manifest), and a recovery rebuilds every epoch a
// shard replays from the host's Source and the frontier log, reading both
// from the replay horizon (Horizon) on.
//
// A live group heals through Group.Heal (see heal.go), the one heal in the
// tree: a single dead shard heals in place without stopping the
// survivors, and anything else recovers every shard in parallel with stock
// engine.Recover — per-shard TPG replay × shard fan-out — then re-feeds
// stragglers. GroupRecover (see recovery.go) runs that same group recovery
// at a cold start, over a fresh group.
package shard

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"morphstreamr/internal/adaptive"
	"morphstreamr/internal/codec"
	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/partition"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
)

// LogFrontier is the coordinator's durable log of barrier frontier
// records: one record per group epoch, payload codec.EncodeFrontierInto
// (the barrier deltas and the sequence floor after the epoch). It lives on
// the coordinator's own device, so shard logs and the group punctuation
// agreement survive crashes independently. Records below the one before
// the replay horizon are released as the horizon moves.
const LogFrontier = "frontier"

// Config assembles one shard group.
type Config struct {
	// GroupShape is the shard fan-out plus the per-shard engine knobs. Every
	// shard runs the same CommitEvery: the punctuation agreement is exactly
	// that every shard's markers land on the same epochs, so no shard's
	// engine consults the commit-interval advisor.
	types.GroupShape
	// App is the (write-local) application; the coordinator wraps it with
	// the replication-event handler.
	App types.App
	// Kind is the fault-tolerance mechanism every shard runs.
	Kind ftapi.Kind
	// Devices are the per-shard durable devices (len Shards). Nil entries
	// and a short or nil slice are filled with fresh in-memory devices.
	Devices []storage.Device
	// CoordDev is the coordinator's durable device for the frontier log.
	// Nil allocates a fresh in-memory device.
	CoordDev storage.Device
	// Obs, when non-nil, observes every shard engine (per-shard series)
	// and the group barriers.
	Obs *obs.Observer
	// Health receives one incident per Heal; nil allocates a fresh log.
	// With Obs set, the log is published as the registry's "health"
	// provider.
	Health *metrics.Health
	// LocalReads declares the application partition-local: every key a
	// transaction reads lives in the shard that owns its routing key (GS
	// with MultiPartitionRatio 0 and Partitions == Shards, for example).
	// The coordinator then skips cross-shard replication entirely — no
	// frontier deltas, no replication events — which removes the per-epoch
	// broadcast tax and is what lets a partitionable workload scale near
	// linearly. Write locality is still verified every barrier; read
	// locality is the caller's assertion (reads are not captured) — if it
	// is wrong, a cross-shard read deterministically observes the table's
	// Init value instead of the replicated frontier.
	LocalReads bool
	// SerialEpochs processes the shards of each epoch sequentially instead
	// of concurrently. Benchmarks use it to measure clean per-shard walls
	// on oversubscribed hosts; the durable history is identical.
	SerialEpochs bool
	// AdaptiveForce pins every shard engine, on NewGroup and on every
	// recovery, to one execution strategy (engine.Config.AdaptiveForce). Nil
	// leaves the choice to each engine's controller.
	AdaptiveForce *adaptive.Strategy
	// Sink, when non-nil, is every shard engine's engine.Config.Sink, told
	// the shard: it receives each epoch a shard releases, replication
	// acknowledgements included, under the engine sink's contract (outs is
	// valid only for the duration of the call), on the goroutine running
	// that shard — different shards' calls may overlap, one shard's never
	// do. It outlives every incarnation of every shard, so a heal has
	// nothing to carry over. Ledgers is a recording one.
	Sink func(shard int, epoch uint64, outs []types.Output)
}

func (c *Config) normalize() error {
	if c.App == nil {
		return errors.New("shard: App is required")
	}
	if err := c.GroupShape.Normalize(); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if len(c.Devices) < c.Shards {
		c.Devices = append(append([]storage.Device(nil), c.Devices...),
			make([]storage.Device, c.Shards-len(c.Devices))...)
	}
	for i := range c.Devices {
		if c.Devices[i] == nil {
			c.Devices[i] = storage.NewMem()
		}
	}
	if c.CoordDev == nil {
		c.CoordDev = storage.NewMem()
	}
	if c.Health == nil {
		c.Health = metrics.NewHealth()
	}
	return nil
}

// ErrCrashed is returned by ProcessEpoch after the group crashed.
var ErrCrashed = errors.New("shard: group crashed; recover with Heal")

// ShardError wraps a shard-local failure with the shard that died, so
// callers can distinguish "heal shard 2" from a group-wide failure.
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }

// Unwrap exposes the underlying engine error to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }

// EpochStat is one group epoch's timing: per-shard processing walls and
// the barrier (delta extraction + frontier append) wall. `cmd/bench shard`
// derives the simulated group ingest wall as Σ over epochs of
// (max shard wall + barrier wall).
type EpochStat struct {
	Epoch       uint64
	Events      int // real events fed this epoch, group-wide
	ShardWalls  []time.Duration
	BarrierWall time.Duration
}

// shardState is one shard's runtime: its engine, device, and the write-set
// capture that feeds the barrier.
type shardState struct {
	idx   int
	dev   storage.Device
	eng   *engine.Engine
	bytes *metrics.Bytes

	// writeSet holds the chain keys of epoch writeSetEpoch, captured by
	// the engine's OnWriteSet hook on the shard's goroutine and read only
	// after the barrier joins all shards.
	writeSet      []types.Key
	writeSetEpoch uint64

	// repKeys holds the keys the coordinator fed shard idx as replication
	// puts this epoch, ascending (the merged foreign delta's key slice).
	// Replication deliberately writes foreign-owned keys (that is what a
	// replica is), so the barrier's write-locality check exempts exactly
	// these; any other foreign-key write is an application locality
	// violation. An application write to a key that was also replicated
	// this epoch is masked by the exemption — acceptable, since such an
	// application is already rejected the first time it writes a foreign
	// key that was not replicated.
	repKeys []types.Key

	// batch is the shard's epoch input buffer, reused across epochs. merged
	// and reps are its replication payload, rebuilt in place every epoch:
	// the merged foreign delta and the events that alias it (repKeys too).
	batch  []types.Event
	merged codec.ShardDelta
	reps   []types.Event
}

// Ledgers is a recording Config.Sink, made with one engine.Ledger per
// shard: each holds every output its shard released across all of its
// incarnations, replication acknowledgements included.
type Ledgers []engine.Ledger

// Sink is a Config.Sink recording shard s's releases into l[s].
func (l Ledgers) Sink(s int, ep uint64, outs []types.Output) { l[s].Sink(ep, outs) }

// Group is a running shard group. Create with NewGroup (or GroupRecover),
// drive with ProcessEpoch, heal with Heal.
type Group struct {
	cfg    Config
	app    *App
	router *partition.Ranges
	shards []*shardState
	coord  storage.Device

	epoch   uint64
	crashed bool
	// seqFloor is one past the highest sequence routed: an epoch without
	// events sequences its replication just below it. A recovery restores
	// it from the target epoch's frontier record, or from the one before
	// when it completes a barrier that died (replay.resume).
	seqFloor uint64

	// lastDeltas is the previous barrier's per-shard delta — the next
	// epoch's replication payload (after a recovery: the last frontier
	// record's). A barrier builds its deltas into whichever of deltaSets
	// lastDeltas does not hold, so the payload epoch N+1 replicates from
	// survives until that epoch's own barrier replaces it.
	lastDeltas []codec.ShardDelta
	deltaSets  [2][]codec.ShardDelta

	// commitAt records when each epoch's commit became covered by the
	// group frontier (coordinator goroutine only, like the rest of the
	// epoch state). commitMarked is the highest epoch stamped.
	commitAt     map[uint64]time.Time
	commitMarked uint64

	stats []EpochStat
	// Per-epoch scratch, reused across epochs: route's per-event shard and
	// per-shard counts, and each shard's batch and error. (A shard's wall
	// is kept by its EpochStat, so walls are not scratch.)
	dest    []int32
	counts  []int
	batches [][]types.Event
	errs    []error
}

// NewGroup builds a shard group with fresh engines over cfg's devices.
func NewGroup(cfg Config) (*Group, error) {
	g, err := newGroupShell(cfg)
	if err != nil {
		return nil, err
	}
	for _, s := range g.shards {
		eng, err := engine.New(g.engineConfig(s, nil))
		if err != nil {
			return nil, err
		}
		s.eng = eng
	}
	return g, nil
}

// newGroupShell validates the config and builds everything except the
// engines (GroupRecover seats recovered engines instead of fresh ones). The
// group's incident log is published to Obs here.
func newGroupShell(cfg Config) (*Group, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	g := &Group{
		cfg:      cfg,
		app:      WrapApp(cfg.App),
		router:   partition.NewRanges(cfg.App.Tables(), cfg.Shards),
		coord:    cfg.CoordDev,
		commitAt: map[uint64]time.Time{},
		counts:   make([]int, cfg.Shards),
		batches:  make([][]types.Event, cfg.Shards),
		errs:     make([]error, cfg.Shards),
	}
	if reg := cfg.Obs.Registry(); reg != nil {
		reg.AttachHealth("health", cfg.Health)
	}
	for i := 0; i < cfg.Shards; i++ {
		g.shards = append(g.shards, &shardState{
			idx:   i,
			dev:   cfg.Devices[i],
			bytes: metrics.NewBytes(),
		})
	}
	return g, nil
}

// engineConfig assembles shard s's engine configuration, recovering from
// rp (nil outside a recovery). The OnWriteSet closure captures into s only;
// during concurrent epochs each engine goroutine therefore touches its own
// shard state exclusively.
func (g *Group) engineConfig(s *shardState, rp *replay) engine.Config {
	var sink func(uint64, []types.Output)
	if g.cfg.Sink != nil {
		sink = func(ep uint64, outs []types.Output) { g.cfg.Sink(s.idx, ep, outs) }
	}
	return engine.Config{
		RunShape:      g.cfg.RunShape,
		App:           g.app,
		Device:        s.dev,
		Mechanism:     ft.New(g.cfg.Kind, s.dev, s.bytes, msr.Default()),
		Bytes:         s.bytes,
		Obs:           g.cfg.Obs,
		AdaptiveForce: g.cfg.AdaptiveForce,
		Shard:         s.idx,
		OfShards:      g.cfg.Shards,
		Inputs: func(after uint64) ([]ftapi.EpochEvents, uint64, error) {
			return rp.inputs(s.idx, after) // only a group recovery recovers an engine
		},
		OnWriteSet: func(ep uint64, keys []types.Key) {
			s.writeSet = append(s.writeSet[:0], keys...)
			s.writeSetEpoch = ep
		},
		Sink: sink,
	}
}

// ProcessEpoch ingests one group punctuation interval: route, replicate,
// process all shards, barrier. Any failure crashes the group until Heal; a
// shard failure surfaces as a *ShardError, which Heal can mend by healing
// that one shard and completing the epoch (see heal.go).
func (g *Group) ProcessEpoch(events []types.Event) error {
	if g.crashed {
		return ErrCrashed
	}
	ep := g.epoch + 1

	dest, minSeq, err := g.route(events)
	if err != nil {
		g.crashed = true
		return err
	}
	if err := g.replicationFor(minSeq); err != nil {
		g.crashed = true
		return err
	}
	// One copy per event into a buffer each shard keeps across epochs (the
	// engine retains nothing of a batch once ProcessEpoch returns): its
	// replication events first, then its share of the input in order. A
	// group of one shard has nothing to split and no other shard to hear
	// from, and feeds the caller's slice as it is.
	batches, errs := g.batches, g.errs
	if len(g.shards) == 1 {
		batches[0] = events
	} else {
		for i, s := range g.shards {
			if n := len(s.reps) + g.counts[i]; cap(s.batch) < n {
				s.batch = make([]types.Event, 0, n)
			}
			s.batch = append(s.batch[:0], s.reps...)
		}
		for j := range events {
			s := g.shards[dest[j]]
			s.batch = append(s.batch, events[j])
		}
		for i, s := range g.shards {
			batches[i] = s.batch
		}
	}

	walls := make([]time.Duration, len(g.shards))
	run := func(i int) {
		t0 := time.Now()
		errs[i] = g.shards[i].eng.ProcessEpoch(batches[i])
		walls[i] = time.Since(t0)
	}
	if g.cfg.SerialEpochs || len(g.shards) == 1 {
		for i := range g.shards {
			run(i)
		}
	} else {
		var wg sync.WaitGroup
		for i := range g.shards {
			wg.Add(1)
			go func(i int) { defer wg.Done(); run(i) }(i)
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			g.crashed = true
			return &ShardError{Shard: i, Err: err}
		}
	}

	t0 := time.Now()
	if err := g.completeBarrier(ep); err != nil {
		g.crashed = true
		return err
	}
	g.stats = append(g.stats, EpochStat{
		Epoch: ep, Events: len(events), ShardWalls: walls, BarrierWall: time.Since(t0),
	})
	return nil
}

// Run feeds a fixed batch list, one group epoch per batch.
func (g *Group) Run(batches [][]types.Event) error {
	for _, batch := range batches {
		if err := g.ProcessEpoch(batch); err != nil {
			return err
		}
	}
	return nil
}

// route validates the global batch and assigns every event its shard by
// its first key: dest[j] is event j's shard and g.counts[s] the number of
// events bound for shard s (scratch, valid until the next call). It also
// returns the epoch's replication sequence ceiling (see minSeqFor).
func (g *Group) route(events []types.Event) (dest []int32, minSeq uint64, err error) {
	if cap(g.dest) < len(events) {
		g.dest = make([]int32, len(events))
	}
	dest, counts := g.dest[:len(events)], g.counts
	clear(counts)
	for i := range events {
		ev := &events[i]
		if ev.Kind == KindReplicate {
			return nil, 0, fmt.Errorf("shard: input event %d uses reserved kind %d", ev.Seq, KindReplicate)
		}
		if len(ev.Keys) == 0 {
			return nil, 0, fmt.Errorf("shard: input event %d has no routing key", ev.Seq)
		}
		s := g.router.Of(ev.Keys[0])
		dest[i] = int32(s)
		counts[s]++
	}
	return dest, g.minSeqFor(events), nil
}

// replicationFor stages every shard's replication events for the next
// epoch from the staged barrier deltas.
func (g *Group) replicationFor(minSeq uint64) error {
	if g.cfg.LocalReads {
		return nil
	}
	// A fresh group's first epoch has no deltas yet; staging still runs, so
	// every shard's exemptions are those of this epoch (here: none).
	for _, s := range g.shards {
		if err := s.stageReplication(g.lastDeltas, minSeq); err != nil {
			return err
		}
	}
	return nil
}

// stageReplication rebuilds, in s's own buffers, the replication events
// shard s ingests this epoch from the other shards' deltas, and remembers
// their keys as the epoch's write-locality exemptions.
func (s *shardState) stageReplication(deltas []codec.ShardDelta, minSeq uint64) error {
	s.merged = mergeForeign(s.merged, s.idx, deltas)
	s.repKeys = s.merged.Keys
	var err error
	s.reps, err = replicationEvents(s.reps[:0], s.merged, minSeq)
	return err
}

// appendFrontier appends epoch ep's frontier record, with the current
// sequence floor, to the coordinator's log. The device copies the payload,
// so it is encoded into a pooled buffer.
func (g *Group) appendFrontier(ep uint64, deltas []codec.ShardDelta) error {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	codec.EncodeFrontierInto(w, deltas, g.seqFloor)
	return g.coord.Append(LogFrontier, storage.Record{Epoch: ep, Payload: w.Bytes()})
}

// completeBarrier runs the barrier step of epoch ep: verify write
// locality, extract per-shard deltas, append the frontier record (and
// release the records below a replay horizon that moved), advance the
// group epoch, and stage the deltas for the next epoch's replication.
func (g *Group) completeBarrier(ep uint64) error {
	set := &g.deltaSets[ep%2] // lastDeltas, if staged by a barrier, is the other set
	if len(*set) != len(g.shards) {
		*set = make([]codec.ShardDelta, len(g.shards))
	}
	deltas := *set
	for i, s := range g.shards {
		d := &deltas[i]
		d.Keys, d.Vals = d.Keys[:0], d.Vals[:0]
		if g.cfg.LocalReads {
			// No replication, so no delta extraction — but write locality
			// is still the contract, and still checked.
			for _, k := range s.writeSet {
				if s.writeSetEpoch == ep && g.router.Of(k) != i {
					return fmt.Errorf("shard: write-locality violation: shard %d wrote %v owned by shard %d (application %q is not write-local)",
						i, k, g.router.Of(k), g.cfg.App.Name())
				}
			}
			continue
		}
		if s.writeSetEpoch != ep {
			// The shard reached ep without executing it through the live
			// pipeline (a heal whose mechanism replayed the epoch): its
			// exact write set is unknown, so publish the full owned
			// partition — replication writes authoritative values, so
			// over-publishing is deterministic and harmless.
			*d = g.fullDelta(i)
			continue
		}
		// The write set arrives ascending and duplicate-free (it is the
		// graph's chain list), and so do the exemptions, so the delta is one
		// pass: owned keys are read straight into it, already in canonical
		// order, and foreign keys are checked off against repKeys in step.
		// Every replicated key is written, so the owned count is exact.
		owned := max(0, len(s.writeSet)-len(s.repKeys))
		d.Keys, d.Vals = slices.Grow(d.Keys, owned), slices.Grow(d.Vals, owned)
		st, rep := s.eng.Store(), s.repKeys
		for _, k := range s.writeSet {
			if owner := g.router.Of(k); owner != i {
				for len(rep) > 0 && rep[0].Less(k) {
					rep = rep[1:]
				}
				if len(rep) > 0 && rep[0] == k {
					continue // replica refresh, not an application write
				}
				return fmt.Errorf("shard: write-locality violation: shard %d wrote %v owned by shard %d (application %q is not write-local)",
					i, k, owner, g.cfg.App.Name())
			}
			d.Keys = append(d.Keys, k)
			d.Vals = append(d.Vals, st.Get(k))
		}
	}
	if err := g.appendFrontier(ep, deltas); err != nil {
		return fmt.Errorf("shard: frontier record epoch %d: %w", ep, err)
	}
	// No recovery reads a record below the one before the replay horizon,
	// which moves to a snapshot's epoch once per snapshot interval.
	if h := g.Horizon(); h == ep && h > 2 {
		if err := storage.Release(g.coord, LogFrontier, h-2); err != nil {
			return fmt.Errorf("shard: frontier release below epoch %d: %w", h-1, err)
		}
	}
	g.lastDeltas = deltas
	g.epoch = ep
	if reg := g.cfg.Obs.Registry(); reg != nil {
		reg.Counter("group.barriers").Inc()
		reg.Gauge("group.epoch").Set(int64(ep))
	}
	if f := g.Committed(); f > g.commitMarked {
		// Stamp the frontier-advance time for every newly covered epoch —
		// the serving layer's journey tracer reads these as the commit
		// stage boundary. A recovered group may see the frontier jump far
		// past commitMarked (epochs committed by a previous incarnation);
		// only a recent window is stamped, older epochs fall back to the
		// caller's observation time.
		now := time.Now()
		lo := g.commitMarked + 1
		if f > 64 && lo < f-64 {
			lo = f - 64
		}
		for e := lo; e <= f; e++ {
			g.commitAt[e] = now
		}
		g.commitMarked = f
		if len(g.commitAt) > 8192 {
			for e := range g.commitAt {
				if e+4096 < f {
					delete(g.commitAt, e)
				}
			}
		}
	}
	return nil
}

// CommittedAt returns when epoch ep was first covered by the committed
// punctuation frontier, as observed on the coordinator goroutine. ok is
// false for epochs committed by a previous incarnation (or pruned).
// Coordinator-goroutine only, like ProcessEpoch.
func (g *Group) CommittedAt(ep uint64) (time.Time, bool) {
	t, ok := g.commitAt[ep]
	return t, ok
}

// fullDelta is shard i's entire owned key space with current values — the
// conservative replication payload used when an exact write set is
// unavailable. Specs iterate in table order so the delta is canonical.
func (g *Group) fullDelta(i int) codec.ShardDelta {
	specs := append([]types.TableSpec(nil), g.app.Tables()...)
	sort.Slice(specs, func(a, b int) bool { return specs[a].ID < specs[b].ID })
	var d codec.ShardDelta
	st := g.shards[i].eng.Store()
	for _, sp := range specs {
		lo, hi := g.router.RowsIn(sp.ID, i)
		for row := lo; row < hi; row++ {
			k := types.Key{Table: sp.ID, Row: row}
			d.Keys = append(d.Keys, k)
			d.Vals = append(d.Vals, st.Get(k))
		}
	}
	return d
}

// Crash models a group-wide stoppage: every shard engine crashes and only
// the devices (and the coordinator's frontier log) survive.
func (g *Group) Crash() {
	g.crashed = true
	for _, s := range g.shards {
		s.eng.Crash()
	}
}

// Epoch returns the number of group epochs completed (all shards aligned
// at this punctuation).
func (g *Group) Epoch() uint64 { return g.epoch }

// Shards returns the shard fan-out.
func (g *Group) Shards() int { return len(g.shards) }

// Engine exposes shard i's engine for inspection and tests.
func (g *Group) Engine(i int) *engine.Engine { return g.shards[i].eng }

// Router exposes the key→shard map.
func (g *Group) Router() *partition.Ranges { return g.router }

// App returns the replication-wrapped application every shard runs.
func (g *Group) App() *App { return g.app }

// Health returns the group's incident log: one incident per Heal.
func (g *Group) Health() *metrics.Health { return g.cfg.Health }

// Committed returns the group's committed punctuation frontier: the
// highest epoch durably committed on every shard (the minimum of the
// committed vector). Every epoch at or below it has released its outputs
// on every shard, so an acknowledgement covering it can never be revoked
// by a crash — the exactly-once gate the serving layer acks against.
func (g *Group) Committed() uint64 {
	var frontier uint64
	for i, s := range g.shards {
		c := s.eng.CommittedEpoch()
		if i == 0 || c < frontier {
			frontier = c
		}
	}
	return frontier
}

// Horizon returns the replay horizon, the oldest snapshot epoch across
// shards: a recovery rebuilds only the epochs from it on.
func (g *Group) Horizon() uint64 {
	h := g.shards[0].eng.SnapshotEpoch()
	for _, s := range g.shards[1:] {
		h = min(h, s.eng.SnapshotEpoch())
	}
	return h
}

// CommittedVector returns each shard's punctuation frontier — the highest
// epoch whose commit marker fired.
func (g *Group) CommittedVector() []uint64 {
	v := make([]uint64, len(g.shards))
	for i, s := range g.shards {
		v[i] = s.eng.CommittedEpoch()
	}
	return v
}

// EpochStats returns the per-epoch timing records.
func (g *Group) EpochStats() []EpochStat { return g.stats }
