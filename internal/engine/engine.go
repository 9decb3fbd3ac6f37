// Package engine implements the transactional stream processing engine of
// Figure 4: Execution Managers (stream + transaction processing over a
// task precedence graph), a Logging Manager (the pluggable fault-tolerance
// mechanism), and a Fault-tolerance Manager (punctuation markers, input
// persistence, snapshots, garbage collection, and the recovery driver).
//
// Processing is epoch-based: each call to ProcessEpoch handles one
// punctuation interval. Three marker kinds structure the run (Section
// VI-C): the transaction marker is the epoch boundary itself; the commit
// marker fires every CommitEvery epochs and group-commits the mechanism's
// buffered log records, releasing the covered epochs' outputs downstream;
// the snapshot marker fires every SnapshotEvery epochs, persists a
// transaction-consistent snapshot, and garbage-collects everything the
// snapshot covers.
//
// Exactly-once delivery: an epoch's outputs are released to the host's
// Config.Sink if and only if its covering commit record (for log-based
// schemes) or snapshot (for CKPT) is durable; the engine keeps nothing it
// released. Crash() models a power failure — every volatile structure is
// abandoned, only the storage device survives — and Recover rebuilds a
// working engine from the device, replaying committed epochs with outputs
// suppressed and reprocessing uncommitted ones with outputs delivered.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"morphstreamr/internal/adaptive"
	"morphstreamr/internal/codec"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/partition"
	"morphstreamr/internal/scheduler"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
	"morphstreamr/internal/vtime"
)

// Advisor is implemented by mechanisms that support workload-aware log
// commitment (MSR): given the first epoch's graph, recommend a commit
// interval.
type Advisor interface {
	AdviseCommitEvery(g *tpg.Graph, snapshotEvery int) int
}

// Config assembles one engine instance.
type Config struct {
	// RunShape is the shared run-configuration surface: Workers,
	// CommitEvery, SnapshotEvery and SnapshotBase, with the one
	// zero-value/validation rule every configuration surface in the tree
	// uses (see types.RunShape).
	types.RunShape
	// AutoCommit lets an advisor mechanism (MSR) pick CommitEvery from the
	// first epoch's graph instead of the configured value. Recover clears
	// it: the advisor tunes on a live first epoch, which recovery does not
	// have.
	AutoCommit bool
	// App is the transactional stream application to run.
	App types.App
	// Device is the durable storage surviving crashes.
	Device storage.Device
	// Mechanism is the fault-tolerance scheme; it must have been created
	// against the same Device and Bytes.
	Mechanism ftapi.Mechanism
	// AsyncCommit moves the durable group-commit write off the critical
	// path (the Lineage Stash-style direction of Section VII): the commit
	// is prepared synchronously, written on a background goroutine, and
	// its epochs' outputs release only once the write completes — so
	// exactly-once delivery is preserved while processing overlaps I/O.
	// Requires a mechanism implementing ftapi.AsyncCommitter; others fall
	// back to synchronous commits.
	AsyncCommit bool
	// AdaptiveForce pins the adaptive controller to one strategy (tests and
	// A/B measurement): {steal, Workers} holds the engine on the pool at its
	// full width every epoch. Nil lets the controller decide.
	AdaptiveForce *adaptive.Strategy
	// Bytes receives artifact-size accounting; nil allocates a fresh one.
	Bytes *metrics.Bytes
	// Obs, when non-nil, receives epoch/recovery phase spans, throughput
	// counters, and latency histograms. Nil disables observability at the
	// cost of a pointer check per instrument call.
	Obs *obs.Observer
	// RecoveryCosts prices Recover in virtual time (see package vtime).
	// Zero leaves it unpriced: the same replay, and a report without
	// model terms.
	RecoveryCosts vtime.Costs
	// RecoveryProfiler, when non-nil, records the recovery replay's
	// per-virtual-worker span timeline, stall attribution, and
	// critical-path bounds (see vtime.Profiler); set it only with
	// RecoveryCosts. Nil disables profiling at the cost of a pointer check
	// per replayed unit.
	RecoveryProfiler *vtime.Profiler
	// Shard and OfShards identify this engine as shard Shard of an
	// OfShards-wide group (internal/shard). OfShards zero means an
	// unsharded engine. The identity labels the engine's observer series
	// and its recovery reports; it changes no processing behaviour.
	Shard    int
	OfShards int
	// OnWriteSet, when non-nil, receives after each executed epoch the
	// epoch number and the distinct keys its transactions wrote (the TPG's
	// chain keys — write-attempted keys, including chains whose every
	// operation aborted), in ascending key order. The shard coordinator uses
	// it to extract the epoch's cross-shard replication delta without
	// diffing snapshots or sorting. The slice is only valid for the duration
	// of the call.
	OnWriteSet func(epoch uint64, keys []types.Key)
	// Inputs, when non-nil, is where Recover reads the inputs it replays,
	// and the engine persists none: its host keeps them (shard.Group).
	// Given the snapshot epoch, it returns the epochs after it in order and
	// the last one Recover reprocesses through; a later one the mechanism
	// did not commit is the host's to re-feed. Nil keeps an input log on
	// the device, appended before each epoch is processed.
	Inputs func(after uint64) (inputs []ftapi.EpochEvents, through uint64, err error)
	// Sink, when non-nil, receives each released epoch's outputs, once per
	// epoch (an epoch without outputs included) and in release order: at the
	// commit marker for log-based mechanisms, at the snapshot for CKPT, at
	// once for NAT, and as the markers re-fire during recovery's tail
	// reprocessing. outs and their Vals are engine memory, valid only for the
	// duration of the call: the engine recycles them for a later epoch, so a
	// sink that keeps outputs copies them (see Ledger). Nil drops them.
	Sink func(epoch uint64, outs []types.Output)
}

func (c *Config) normalize() error {
	if c.App == nil || c.Device == nil || c.Mechanism == nil {
		return errors.New("engine: App, Device, and Mechanism are required")
	}
	if err := c.RunShape.Normalize(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if c.Bytes == nil {
		c.Bytes = metrics.NewBytes()
	}
	return nil
}

// epochOutputs buffers one epoch's outputs until their release marker: outs,
// whose Vals are carved from the epoch's value slab vals.
type epochOutputs struct {
	epoch uint64
	outs  []types.Output
	vals  []types.Value
}

// Engine is one running TSPE instance.
type Engine struct {
	cfg    Config
	st     *store.Store
	ranges *partition.Ranges

	epoch      uint64
	lastCommit uint64
	lastSnap   uint64

	// pending holds the unreleased epochs' outputs in epoch order; spare
	// holds the buffers of released ones, emptied, for later epochs to fill
	// (as many as epochs are ever pending at once).
	pending []epochOutputs
	spare   []epochOutputs

	runtime   metrics.RuntimeBreakdown
	totalWall time.Duration
	events    int

	commitEvery int // may be tuned by AutoCommit on the first epoch
	crashed     bool

	// inflight is the pending asynchronous commit, if any: once done
	// reports success, outputs up to its epoch may release.
	inflight *asyncCommit

	// writeSet is notifyWriteSet's key buffer and view completeEpoch's
	// postprocessing view, both reused across epochs.
	writeSet []types.Key
	view     types.ExecutedTxn

	// builder recycles TPG memory across epochs: a graph is released back
	// to it once its epoch is sealed (mechanisms do not retain graphs),
	// so steady-state processing reuses one graph's worth of arenas.
	builder *tpg.Builder

	// sched receives the scheduler's steal/park/stall counters when
	// observability is on (nil otherwise; the scheduler tolerates nil).
	sched *obs.SchedStats
	// commDepth mirrors the mechanism's buffered-epoch count into a gauge.
	// It is sampled on the engine goroutine at seal time — GroupCommitter's
	// Buffered is not synchronised, so a pull-gauge read from the telemetry
	// endpoint would race the commit path.
	commDepth *obs.Gauge
	buffered  interface{ Buffered() int }

	// exec runs every epoch's graph: its controller observes the epoch's
	// structure and the previous epoch's wall time and picks sequential or
	// pool execution and the worker count; assignBy caches the chain
	// assignment per live worker count it asks for.
	exec     *scheduler.Executor
	assignBy map[int]func(*tpg.Chain) int
}

// asyncCommit tracks one background group-commit write.
type asyncCommit struct {
	epoch uint64
	done  chan error
}

// New creates an engine with fresh application state.
func New(cfg Config) (*Engine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:         cfg,
		st:          store.New(cfg.App.Tables()),
		commitEvery: cfg.CommitEvery,
		builder:     tpg.NewBuilder(),
	}
	e.ranges = partition.NewRanges(cfg.App.Tables(), cfg.Workers)
	e.assignBy = map[int]func(*tpg.Chain) int{}
	if cfg.SnapshotBase > 1 {
		// Incremental checkpoints: track written partitions per snapshot
		// interval. Enabled before any processing (and before recovery
		// replay), so the dirty map covers every post-marker write.
		e.st.EnableDirtyTracking()
	}
	if reg := cfg.Obs.Registry(); reg != nil {
		e.sched = &obs.SchedStats{}
		e.sched.Register(reg)
		reg.AttachBytes("bytes", cfg.Bytes)
		// Committer queue depth: every mechanism embeds a GroupCommitter,
		// but check the interface so bespoke mechanisms remain legal.
		if b, ok := cfg.Mechanism.(interface{ Buffered() int }); ok {
			e.buffered = b
			e.commDepth = reg.Gauge("committer.depth")
		}
	}
	e.exec = &scheduler.Executor{
		Ctrl: adaptive.New(adaptive.Config{
			MaxWorkers: cfg.Workers,
			Force:      cfg.AdaptiveForce,
			Obs:        cfg.Obs,
		}),
		AssignFor: e.assignFor,
		Stats:     e.sched,
	}
	return e, nil
}

// Store exposes the live state for inspection and tests.
func (e *Engine) Store() *store.Store { return e.st }

// Epoch returns the number of epochs processed so far.
func (e *Engine) Epoch() uint64 { return e.epoch }

// CommitEvery returns the effective log commitment interval (after any
// workload-aware adjustment).
func (e *Engine) CommitEvery() int { return e.commitEvery }

// PendingOutputs returns how many outputs await their release marker.
func (e *Engine) PendingOutputs() int {
	return e.PendingOutputsMatching(func(types.Output) bool { return true })
}

// PendingOutputsMatching returns how many buffered outputs satisfy match:
// the shard oracle's exactly-once check counts application outputs apart
// from replication acknowledgements.
func (e *Engine) PendingOutputsMatching(match func(types.Output) bool) int {
	n := 0
	for _, p := range e.pending {
		for _, out := range p.outs {
			if match(out) {
				n++
			}
		}
	}
	return n
}

// CommittedEpoch returns the highest epoch whose commit marker has fired —
// the engine's current punctuation frontier. The shard coordinator's
// determinism test records this vector after every aligned epoch.
func (e *Engine) CommittedEpoch() uint64 { return e.lastCommit }

// SnapshotEpoch returns the epoch of the latest snapshot marker: a
// recovery restores its state and replays the epochs above it.
func (e *Engine) SnapshotEpoch() uint64 { return e.lastSnap }

// Runtime returns the accumulated fault-tolerance overhead breakdown.
func (e *Engine) Runtime() metrics.RuntimeBreakdown { return e.runtime }

// Bytes returns the artifact-size accounting shared with the mechanism.
func (e *Engine) Bytes() *metrics.Bytes { return e.cfg.Bytes }

// Events returns the number of input events processed.
func (e *Engine) Events() int { return e.events }

// TotalWall returns wall time spent in ProcessEpoch overall; events/second
// against it is the runtime throughput of Figure 12a.
func (e *Engine) TotalWall() time.Duration { return e.totalWall }

// Throughput returns the runtime throughput in events per second.
func (e *Engine) Throughput() float64 { return metrics.Throughput(e.events, e.totalWall) }

// ErrCrashed is returned by ProcessEpoch after Crash.
var ErrCrashed = errors.New("engine: crashed; recover with engine.Recover")

// Classify maps an error surfaced by ProcessEpoch to its incident cause
// label: "panic", "poisoned", or "io-fatal" (any device error, transient
// or not: the heal is the one answer to both). The shard group's heal and
// the serving pump's heal timeline share it, so incident records read
// identically whichever layer reports them.
func Classify(err error) string {
	switch {
	case errors.Is(err, scheduler.ErrOpPanic):
		return "panic"
	case errors.Is(err, ftapi.ErrPoisoned):
		return "poisoned"
	default:
		return "io-fatal"
	}
}

// ProcessEpoch ingests one punctuation interval's events. Event sequence
// numbers must continue from the previous epoch (the spout's numbering).
//
// An error from the epoch pipeline — a failed input append, group commit,
// snapshot, or garbage collection — leaves volatile state that no longer
// matches the durable log (the epoch counter advanced, outputs may be
// buffered against a commit that never landed), so the engine marks itself
// crashed: the error surfaces to the caller exactly once and every further
// call returns ErrCrashed. The only way forward is engine.Recover against
// the surviving device, which is precisely what a real stoppage requires.
func (e *Engine) ProcessEpoch(events []types.Event) error {
	if e.crashed {
		return ErrCrashed
	}
	start := time.Now()
	e.epoch++
	if err := e.processEpoch(e.epoch, events); err != nil {
		e.markCrashed()
		return err
	}
	e.totalWall += time.Since(start)
	e.observeEpoch(start, len(events))
	return nil
}

// observeEpoch accounts one completed epoch with the observer.
func (e *Engine) observeEpoch(start time.Time, events int) {
	reg := e.cfg.Obs.Registry()
	if reg == nil {
		return
	}
	reg.Counter("engine.epochs").Inc()
	reg.Counter("engine.events").Add(int64(events))
	reg.Histogram("epoch.seconds").ObserveSince(start)
	if e.cfg.OfShards > 0 {
		// Sharded groups share one observer; per-shard series keep the
		// shards distinguishable in /metrics.
		reg.Counter(fmt.Sprintf("shard.%d.epochs", e.cfg.Shard)).Inc()
		reg.Counter(fmt.Sprintf("shard.%d.events", e.cfg.Shard)).Add(int64(events))
		reg.Gauge(fmt.Sprintf("shard.%d.committed", e.cfg.Shard)).Set(int64(e.lastCommit))
	}
}

// processEpoch runs one live epoch. The input persists first (Figure 10
// step 1), so the epoch survives a crash at any later point; stream
// processing then builds the epoch's task precedence graph.
func (e *Engine) processEpoch(ep uint64, events []types.Event) error {
	if err := e.persistEpochInput(ep, events); err != nil {
		return err
	}
	g := e.construct(ep, events)
	// Workload-aware log commitment: on the very first epoch, let the
	// mechanism inspect the graph and pick the commit interval.
	if e.cfg.AutoCommit && ep == 1 {
		if adv, ok := e.cfg.Mechanism.(Advisor); ok {
			if ce := adv.AdviseCommitEvery(g, e.cfg.SnapshotEvery); ce > 0 {
				e.commitEvery = ce
			}
		}
	}

	if err := e.execute(ep, g); err != nil {
		return err
	}
	return e.completeEpoch(ep, events, g)
}

// execute is the transaction processing phase of every epoch, live or
// reprocessed during recovery: the controller-chosen executor explores the
// graph. SealEpoch orders records by chain owner, so the chains are
// re-labelled to the canonical Config.Workers-way partition afterwards,
// whatever the strategy assigned: the durable record order never depends on
// how an epoch happened to be executed.
func (e *Engine) execute(ep uint64, g *tpg.Graph) error {
	sp := e.cfg.Obs.Begin(0, obs.CatEpoch, "execute", ep)
	err := e.exec.Execute(ep, g, e.st)
	sp.End()
	for _, ch := range g.ChainList {
		ch.Owner = e.ranges.Of(ch.Key)
	}
	if err != nil {
		return fmt.Errorf("engine: epoch %d: %w", ep, err)
	}
	return nil
}

// persistEpochInput persists an epoch's input events, unless nothing
// replays them (NAT) or the host keeps them (Config.Inputs).
func (e *Engine) persistEpochInput(ep uint64, events []types.Event) error {
	if e.cfg.Mechanism.Kind() == ftapi.NAT || e.cfg.Inputs != nil {
		return nil
	}
	t0 := time.Now()
	// Pooled encode buffer: the device copies the payload on Append, so the
	// buffer recycles as soon as the write returns.
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	codec.EncodeEventsInto(w, events)
	payload := w.Bytes()
	if err := e.cfg.Device.Append(storage.LogInput, storage.Record{Epoch: ep, Payload: payload}); err != nil {
		return fmt.Errorf("engine: persist input: %w", err)
	}
	e.cfg.Bytes.Written("input", int64(len(payload)))
	e.runtime.IO += time.Since(t0)
	return nil
}

// construct runs the stream-processing phase of one epoch: preprocessing
// turns the events into state transactions, written straight into a
// recycled graph's own storage (transactions into Input, their operations
// into the Ops arena), and construction builds the task precedence graph
// over them, with its epoch-start dependency values read from the store.
func (e *Engine) construct(ep uint64, events []types.Event) *tpg.Graph {
	sp := e.cfg.Obs.Begin(0, obs.CatEpoch, "preprocess", ep)
	g := e.builder.Begin(len(events))
	for i, ev := range events {
		n := len(g.Ops)
		g.Ops = e.cfg.App.AppendOps(g.Ops, ev)
		g.Input[i] = types.NewTxn(ev, g.Ops[n:len(g.Ops):len(g.Ops)])
	}
	sp.End()
	sp = e.cfg.Obs.Begin(0, obs.CatEpoch, "construct", ep)
	g.BuildInput()
	sp.End()
	g.CaptureBases(e.st.Get)
	return g
}

// reprocessEpoch replays one epoch of the uncommitted tail during
// recovery through the live path — construct, execute on the engine's
// executor, complete — and, before completing, prices the executed graph
// (given rc.Costs) in vtime on Config.Workers virtual workers under the
// canonical chain partition, so CKPT-style full reprocessing is charged the
// stalls and load imbalance a real multicore would experience.
func (e *Engine) reprocessEpoch(ep uint64, events []types.Event, rc *ftapi.RecoveryContext) error {
	g := e.construct(ep, events)
	if err := e.execute(ep, g); err != nil {
		return err
	}
	costs := rc.Costs
	if costs.IsZero() {
		return e.completeEpoch(ep, events, g)
	}
	// Preprocessing and graph construction parallelize across the
	// stream-processing executors; charge aggregate thread-time.
	rc.Spread("construct", &rc.Breakdown.Construct, costs.GraphCost(len(events), g.NumOps))
	rc.Prof.BeginPhase("reprocess")
	result := vtime.SimulateGraphProf(g, e.cfg.Workers, costs, rc.Prof)
	rc.Prof.EndPhase(result.Makespan)
	result.Charge(rc.Breakdown, false)
	// Full reprocessing replays the entire stream-processing dataflow —
	// operator queues, postprocessing, output regeneration — which
	// log-based redo paths bypass; charge it as parallelizable
	// thread-time.
	rc.Spread("pipeline", &rc.Breakdown.Execute, time.Duration(len(events))*(costs.Pipeline+costs.Postprocess))
	return e.completeEpoch(ep, events, g)
}

// notifyWriteSet surfaces the epoch's chain keys to Config.OnWriteSet. It
// runs on both the live path and the recovery tail reprocessing path, so a
// coordinator sees the write set of every epoch executed through the
// normal pipeline (mechanism-replayed committed epochs do not execute
// through it; coordinators fall back to a conservative full delta there).
func (e *Engine) notifyWriteSet(ep uint64, g *tpg.Graph) {
	if e.cfg.OnWriteSet == nil {
		return
	}
	// The chain list is in ascending key order, one chain per key, so the
	// write set is sorted and duplicate-free — a guarantee coordinators
	// build their barrier deltas on. The buffer is reused (the hook's
	// contract: valid only for the duration of the call).
	e.writeSet = e.writeSet[:0]
	for _, ch := range g.ChainList {
		e.writeSet = append(e.writeSet, ch.Key)
	}
	e.cfg.OnWriteSet(ep, e.writeSet)
}

// completeEpoch is the tail of every executed epoch, live or reprocessed
// during recovery: postprocessing, the write-set hook, then sealing and the
// markers (native execution releases at once). The graph is handed back to
// the recycler once the epoch is sealed; on error the engine is crashing
// anyway, so it is simply dropped.
func (e *Engine) completeEpoch(ep uint64, events []types.Event, g *tpg.Graph) error {
	// Postprocessing: outputs are buffered until their release marker, in a
	// released epoch's recycled buffers when there is one. One scratch view
	// serves every transaction (zero-copy record view — the Postprocess
	// contract forbids retaining it).
	var p epochOutputs
	if n := len(e.spare); n > 0 {
		p, e.spare = e.spare[n-1], e.spare[:n-1]
	}
	p.epoch, p.outs = ep, slices.Grow(p.outs, len(g.Txns))
	for _, tn := range g.Txns {
		var out types.Output
		out, p.vals = e.cfg.App.Postprocess(p.vals, tn.ExecutedInto(&e.view))
		p.outs = append(p.outs, out)
	}
	e.pending = append(e.pending, p)
	e.events += len(events)
	e.notifyWriteSet(ep, g)

	if e.cfg.Mechanism.Kind() == ftapi.NAT {
		// Native execution has no durability gate; release immediately.
		e.release(ep)
		e.builder.Release(g)
		return nil
	}
	return e.sealAndMark(ep, events, g)
}

// assignFor returns the chain partitioner for a live worker count, caching
// one per count the controller's worker morphs alternate between.
func (e *Engine) assignFor(w int) func(*tpg.Chain) int {
	f, ok := e.assignBy[w]
	if !ok {
		r := partition.NewRanges(e.cfg.App.Tables(), w)
		f = func(c *tpg.Chain) int { return r.Of(c.Key) }
		e.assignBy[w] = f
	}
	return f
}

// Adaptive exposes the engine's adaptive controller; tests and benchmarks
// read its decision trace.
func (e *Engine) Adaptive() *adaptive.Controller { return e.exec.Ctrl }

// Close releases the engine's background resources — the executor's worker
// pool. It is idempotent; an engine that fails or is crashed closes itself,
// one that finishes cleanly is closed by its host. It waits for an epoch in
// flight, so a host must not call it synchronously on a wedged engine.
func (e *Engine) Close() { e.exec.Close() }

// markCrashed transitions the engine to the crashed state and releases its
// background resources (a crashed engine never executes again).
func (e *Engine) markCrashed() {
	e.crashed = true
	e.Close()
}

// sealAndMark records the epoch with the fault-tolerance mechanism and
// processes any commit/snapshot markers that fire at this epoch.
func (e *Engine) sealAndMark(ep uint64, events []types.Event, g *tpg.Graph) error {
	// Record intermediate results / log records (Figure 10 step 2).
	t0 := time.Now()
	e.cfg.Mechanism.SealEpoch(&ftapi.EpochResult{
		Epoch:   ep,
		Events:  events,
		Graph:   g,
		Workers: e.cfg.Workers,
	})
	e.runtime.Tracking += time.Since(t0)
	// Mechanisms encode everything they need during SealEpoch and retain
	// no graph references (the ftapi contract), so the graph's memory can
	// be recycled for a later epoch.
	e.builder.Release(g)
	if e.commDepth != nil {
		e.commDepth.Set(int64(e.buffered.Buffered()))
	}

	// Commit marker: group commit, then release the covered outputs. With
	// AsyncCommit the durable write happens on a background goroutine and
	// the outputs release when it completes (checked at the next marker or
	// drained at snapshots); without it, both happen here.
	if ep%uint64(e.commitEvery) == 0 {
		if err := e.commitMarker(ep); err != nil {
			return fmt.Errorf("engine: epoch %d: %w", ep, err)
		}
	}

	// Snapshot marker. Any in-flight commit must land first: the snapshot
	// garbage-collects the log the write appends to.
	if ep%uint64(e.cfg.SnapshotEvery) == 0 {
		if err := e.drainInflight(); err != nil {
			return fmt.Errorf("engine: epoch %d: %w", ep, err)
		}
		if err := e.snapshot(ep); err != nil {
			return fmt.Errorf("engine: epoch %d: %w", ep, err)
		}
	}
	return nil
}

// commitMarker performs one commit-marker firing (see sealAndMark).
func (e *Engine) commitMarker(ep uint64) error {
	sp := e.cfg.Obs.Begin(0, obs.CatEpoch, "commit", ep)
	defer sp.End()
	if reg := e.cfg.Obs.Registry(); reg != nil {
		t := time.Now()
		defer func() {
			reg.Counter("engine.commits").Inc()
			reg.Histogram("commit.seconds").ObserveSince(t)
		}()
	}
	ac, _ := e.cfg.Mechanism.(ftapi.AsyncCommitter)
	if e.cfg.AsyncCommit && ac != nil {
		// The previous in-flight write must finish first: group
		// commits are ordered, and the device is one channel.
		if err := e.drainInflight(); err != nil {
			return err
		}
		t0 := time.Now()
		write, ok := ac.PrepareCommit(ep)
		e.runtime.IO += time.Since(t0)
		if ok {
			fl := &asyncCommit{epoch: ep, done: make(chan error, 1)}
			e.inflight = fl
			go func() { fl.done <- write() }()
			return nil
		}
		return e.commitVisible(ep)
	}
	t0 := time.Now()
	if err := e.cfg.Mechanism.Commit(ep); err != nil {
		return err
	}
	e.runtime.IO += time.Since(t0)
	t0 = time.Now()
	if err := e.commitVisible(ep); err != nil {
		return err
	}
	e.runtime.Sync += time.Since(t0)
	return nil
}

// commitVisible marks epochs <= ep durably committed: the watermark moves
// and, for log-gated mechanisms, their outputs release downstream.
//
// Under asynchronous commit the release is decoupled from the commit
// record, so a durable delivery watermark records how far outputs have
// actually been released; recovery caps mechanism replay at the watermark
// and reprocesses the rest with outputs delivered. The watermark write and
// the release model one atomic step (a transactional sink), the same
// assumption the synchronous path makes about commit+release.
func (e *Engine) commitVisible(ep uint64) error {
	e.lastCommit = ep
	if e.cfg.Mechanism.Kind() == ftapi.CKPT {
		return nil
	}
	if e.cfg.AsyncCommit {
		t0 := time.Now()
		m := storage.Manifest{Kind: manifestKindDelivery, Epoch: ep}
		if err := e.cfg.Device.WriteBlob(storage.BlobMeta, m.Encode()); err != nil {
			return fmt.Errorf("delivery watermark: %w", err)
		}
		e.runtime.IO += time.Since(t0)
	}
	e.release(ep)
	return nil
}

// drainInflight waits for the pending asynchronous commit, if any, and
// makes its epochs visible. The wait is synchronisation at a marker.
func (e *Engine) drainInflight() error {
	if e.inflight == nil {
		return nil
	}
	t0 := time.Now()
	err := <-e.inflight.done
	e.runtime.Sync += time.Since(t0)
	if err != nil {
		e.inflight = nil
		return err
	}
	ep := e.inflight.epoch
	e.inflight = nil
	return e.commitVisible(ep)
}

// release hands the pending outputs of epochs <= upTo to the sink, epoch by
// epoch, and recycles their buffers.
func (e *Engine) release(upTo uint64) {
	kept := e.pending[:0]
	for _, p := range e.pending {
		if p.epoch > upTo {
			kept = append(kept, p)
			continue
		}
		if e.cfg.Sink != nil {
			e.cfg.Sink(p.epoch, p.outs)
		}
		e.spare = append(e.spare, epochOutputs{outs: p.outs[:0], vals: p.vals[:0]})
	}
	e.pending = kept
}

// Ledger is a recording sink: its Sink copies each released epoch's outputs,
// so what it holds stays valid after the engine recycles the memory it
// released them from. Installed on an engine and on the engine Recover
// rebuilds from the same device, one Ledger holds every output released
// across both incarnations, in release order. Tests, crash sweeps and the
// examples read one; nothing on the epoch path does. It is not synchronised:
// one engine at a time feeds it.
type Ledger struct {
	// Epochs lists the released epochs, in release order.
	Epochs []uint64
	// Outputs lists the released outputs, in release order.
	Outputs []types.Output
}

// Sink is a Config.Sink recording into l.
func (l *Ledger) Sink(ep uint64, outs []types.Output) {
	l.Epochs = append(l.Epochs, ep)
	for _, o := range outs {
		o.Vals = slices.Clone(o.Vals)
		l.Outputs = append(l.Outputs, o)
	}
}

// snapshot persists a transaction-consistent snapshot and garbage-collects
// everything it covers (Figure 10 steps 4-6).
func (e *Engine) snapshot(ep uint64) error {
	sp := e.cfg.Obs.Begin(0, obs.CatEpoch, "snapshot", ep)
	defer sp.End()
	if reg := e.cfg.Obs.Registry(); reg != nil {
		t := time.Now()
		defer func() {
			reg.Counter("engine.snapshots").Inc()
			reg.Histogram("snapshot.seconds").ObserveSince(t)
		}()
	}
	t0 := time.Now()
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	if e.snapshotIsBase(ep) {
		encodeSnapshotBlobInto(w, ep, e.st.Snapshot())
		payload := w.Bytes()
		if err := e.cfg.Device.WriteBlob(storage.BlobSnapshot, payload); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		e.cfg.Bytes.Written("snapshot", int64(len(payload)))
	} else {
		// Incremental marker: persist only the partitions written since the
		// previous marker, appended to the checkpoint log at this epoch.
		encodeDeltaInto(w, e.st)
		payload := w.Bytes()
		if err := e.cfg.Device.Append(storage.LogCkpt, storage.Record{Epoch: ep, Payload: payload}); err != nil {
			return fmt.Errorf("snapshot delta: %w", err)
		}
		e.cfg.Bytes.Written("snapshot-delta", int64(len(payload)))
	}
	if e.st.DirtyTracking() {
		// The marker is durable: the next interval starts clean. (On write
		// failure the engine crashes with bits intact, which only over-
		// includes the next delta — never under.)
		e.st.ResetDirty()
	}
	e.runtime.IO += time.Since(t0)

	// CKPT releases outputs only here: the snapshot is its durability gate.
	t0 = time.Now()
	if e.cfg.Mechanism.Kind() == ftapi.CKPT {
		e.release(ep)
	}
	e.lastSnap = ep
	e.runtime.Sync += time.Since(t0)

	// Garbage collection: input events and log records covered by the
	// snapshot are dead (Figure 10: "deleted upon the completion of the
	// current checkpoint").
	t0 = time.Now()
	if e.snapshotIsBase(ep) {
		// Deltas at or below the base are composed into it; their segments
		// release through the single GC path. This (like all GC) runs only
		// after outputs released: the blob write is the marker's one atomic
		// commit point, and no device write may come between it and the
		// release for CKPT, whose snapshot is the durability gate.
		if err := storage.Release(e.cfg.Device, storage.LogCkpt, ep); err != nil {
			return fmt.Errorf("snapshot gc: %w", err)
		}
	}
	if e.cfg.Inputs == nil {
		if err := storage.Release(e.cfg.Device, storage.LogInput, ep); err != nil {
			return fmt.Errorf("snapshot gc: %w", err)
		}
	}
	if err := storage.Release(e.cfg.Device, storage.LogFT, ep); err != nil {
		return fmt.Errorf("snapshot gc: %w", err)
	}
	e.cfg.Mechanism.GC(ep)
	e.runtime.IO += time.Since(t0)
	return nil
}

// Crash models a single-node stoppage: the engine becomes unusable and
// only the storage device's content survives (and whatever its sink kept of
// the outputs it released). The engine object remains inspectable, but
// rejects further processing.
func (e *Engine) Crash() {
	e.markCrashed()
}

// encodeSnapshotBlobInto appends a snapshot framed with its covering epoch
// to w, making the blob self-describing: recovery learns the restart epoch
// from the blob itself, so blob and metadata can never disagree. The
// snapshot writer passes a pooled buffer (the blob is the largest single
// allocation of the epoch loop, so reusing its buffer matters most).
func encodeSnapshotBlobInto(w *codec.Buffer, ep uint64, snap *store.Snapshot) {
	tables := make([]codec.SnapshotTable, 0, len(snap.Tables))
	for _, t := range snap.Tables {
		tables = append(tables, codec.SnapshotTable{ID: t.Spec.ID, Init: t.Spec.Init, Vals: t.Vals})
	}
	w.Uvarint(ep)
	codec.EncodeSnapshotInto(w, tables)
}

// decodeSnapshotBlob parses encodeSnapshotBlobInto output and restores it into
// the store.
func decodeSnapshotBlob(payload []byte, st *store.Store) (uint64, error) {
	r := codec.NewReader(payload)
	ep := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, err
	}
	tables, err := codec.DecodeSnapshot(payload[len(payload)-r.Remaining():])
	if err != nil {
		return 0, err
	}
	snap := &store.Snapshot{}
	for _, t := range tables {
		snap.Tables = append(snap.Tables, store.TableSnapshot{
			Spec: types.TableSpec{ID: t.ID, Rows: uint32(len(t.Vals)), Init: t.Init},
			Vals: t.Vals,
		})
	}
	if err := st.Restore(snap); err != nil {
		return 0, err
	}
	return ep, nil
}
