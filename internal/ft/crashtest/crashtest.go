// Package crashtest is the exhaustive crash-point sweep harness: it proves
// that recovery is correct no matter which durable write a device dies on,
// for every fault-tolerance mechanism and every fault flavour.
//
// Every run is a shard.Group — the host the server runs — of Config.Shards
// shards (one by default: a single engine behind the coordinator). The
// harness exploits determinism end to end. A seeded workload produces the
// same event sequence on every run, and each device of the group — every
// shard's and the coordinator's — sees the same durable writes in the same
// order for it, however the shards interleave, so the sweep can:
//
//  1. run the workload once with a counting wrapper (storage.Trace) on every
//     device to enumerate its durable writes — group commits, snapshot
//     blobs, GC releases, frontier records — as storage.WriteSite values;
//  2. replay the whole run through the sharded oracle, capturing the
//     reference state after every epoch and the reference output of every
//     event;
//  3. for each enumerated site k of each device, re-run the same workload
//     with that one device dying exactly at write k (fail-stop, torn write,
//     or dropped tail), crash the group, recover it with shard.GroupRecover
//     from the surviving media, and check every shard's store against the
//     oracle state of the recovered epoch and the outputs one recording sink
//     kept across the crash for exactly-once delivery.
//
// A sweep failure pinpoints the device, write site, mechanism, and fault
// mode that diverged — "[shard0] WAL under torn-write dies at write 7:
// append[ft] epoch=4: recovers the wrong value for {table 0 row 12}" —
// which is the whole debugging loop for recovery bugs.
package crashtest

import (
	"fmt"

	"morphstreamr/internal/adaptive"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// Config describes one sweep: a mechanism, a seeded workload shape, the
// group fan-out, and a fault flavour.
type Config struct {
	// Kind is the fault-tolerance mechanism under test.
	Kind ftapi.Kind
	// NewGen returns a fresh generator of the same seeded workload; it is
	// called once per sweep, and every pass replays the batches it produced.
	NewGen func() workload.Generator
	// Epochs and EpochSize shape the run: Epochs punctuation intervals of
	// EpochSize events each.
	Epochs    int
	EpochSize int
	// RunShape carries the engine knobs (Workers, CommitEvery,
	// SnapshotEvery, SnapshotBase). When Workers, CommitEvery and
	// SnapshotEvery are all left zero the sweep takes those three from
	// DefaultSweepShape, a compact shape that exercises both marker kinds
	// several times per run; partial settings fall through to the tree-wide
	// RunShape defaults.
	types.RunShape
	// Shards is the group fan-out. Zero means 1.
	Shards int
	// Mode is what the dying write leaves on the medium.
	Mode storage.FaultMode
	// Target, when non-empty, restricts the sweep to writes touching that
	// log or blob (e.g. storage.LogFT sweeps only group-commit records).
	Target string
	// Continue additionally processes one post-recovery epoch and checks
	// the group again, proving it is live, not a husk.
	Continue bool
	// Store selects the base medium of every device under the fault
	// wrappers: "mem" (the default flat in-memory device) or "seg", the
	// bounded segment store — whose durable write sites (seals, index pops,
	// segment reuse) the sweep then crosses exactly like any other.
	Store string
	// SegmentBytes sets the segment payload cap when Store is "seg"; small
	// values force records across segment seals so torn writes land inside
	// and astride sealed segments. Zero keeps the SegStore default.
	SegmentBytes int
	// SampleEvery strides the enumerated sites of each device (1 sweeps
	// every site; k sweeps every k-th). Zero means 1.
	SampleEvery int

	// force pins every shard engine the harness builds, crashed and
	// recovered alike, to one execution strategy (shard.Config.AdaptiveForce)
	// and has every verification check that they ran on it. Nil leaves the
	// choice to each engine's controller, which on a small host settles on
	// sequential execution; {steal, Workers} keeps a sweep on the
	// work-stealing pool so the race detector crosses it under crash
	// injection.
	force *adaptive.Strategy
}

// DefaultSweepShape is the run shape the sweep uses when the caller left
// Workers, CommitEvery, and SnapshotEvery all unset: two workers, commit
// markers every 2 epochs, snapshots every 4 — small enough that the
// exhaustive per-write replay stays fast, dense enough that every marker
// kind fires several times per 6-epoch run.
func DefaultSweepShape() types.RunShape {
	return types.RunShape{Workers: 2, CommitEvery: 2, SnapshotEvery: 4}
}

func (c *Config) normalize() error {
	if c.Epochs <= 0 {
		c.Epochs = 6
	}
	if c.EpochSize <= 0 {
		c.EpochSize = 24
	}
	if c.Workers == 0 && c.CommitEvery == 0 && c.SnapshotEvery == 0 {
		d := DefaultSweepShape()
		c.Workers, c.CommitEvery, c.SnapshotEvery = d.Workers, d.CommitEvery, d.SnapshotEvery
	}
	if err := c.RunShape.Normalize(); err != nil {
		return fmt.Errorf("crashtest: %w", err)
	}
	c.Shards = max(c.Shards, 1)
	c.SampleEvery = max(c.SampleEvery, 1)
	switch c.Store {
	case "":
		c.Store = "mem"
	case "mem", "seg":
	default:
		return fmt.Errorf("crashtest: unknown store %q (want \"mem\" or \"seg\")", c.Store)
	}
	return nil
}

// newBase builds the configured base medium. Every device of every pass —
// shards and coordinator, enumeration and each crash replay — is a fresh
// one, so runs stay identical.
func newBase(cfg *Config) storage.Device {
	if cfg.Store == "seg" {
		return storage.NewSegStore(storage.SegConfig{SegmentBytes: cfg.SegmentBytes})
	}
	return storage.NewMem()
}

// newBases returns one fresh base medium per device: the shards', then the
// coordinator's.
func newBases(cfg *Config) []storage.Device {
	devs := make([]storage.Device, cfg.Shards+1)
	for i := range devs {
		devs[i] = newBase(cfg)
	}
	return devs
}

// deviceName labels injection targets: per-shard devices and the
// coordinator's frontier-log device.
func deviceName(shards, i int) string {
	if i == shards {
		return "coord"
	}
	return fmt.Sprintf("shard%d", i)
}

// Failure records one crash point whose recovery diverged: the device the
// fault was injected into plus the site, mechanism, and mode.
type Failure struct {
	Device string
	Kind   ftapi.Kind
	Mode   storage.FaultMode
	Site   storage.WriteSite
	Err    error
}

// String renders the failure the way acceptance reports want it: device,
// exact write site, mechanism, and fault mode.
func (f Failure) String() string {
	return fmt.Sprintf("[%s] %v under %v dies at %v: %v", f.Device, f.Kind, f.Mode, f.Site, f.Err)
}

// Result summarises one sweep.
type Result struct {
	// SitesByDevice maps device name ("shard0".."shardN-1", "coord") to its
	// enumerated (target-filtered) write sites.
	SitesByDevice map[string][]storage.WriteSite
	// Runs counts full crash → recover → verify cycles executed.
	Runs int
	// Failures lists every diverged crash point; empty means the sweep
	// passed.
	Failures []Failure
}

// Sites counts all enumerated sites across devices.
func (r *Result) Sites() int {
	n := 0
	for _, sites := range r.SitesByDevice {
		n += len(sites)
	}
	return n
}

// shardRef is a reference run: the pre-generated global batches (one more
// than the run's epochs, for Continue) and the sharded oracle's replay of
// them.
type shardRef struct {
	app     types.App
	batches [][]types.Event // batches[e-1] is epoch e's events
	orc     *shard.GroupOracle
}

// buildRef generates cfg's workload and replays it on cfg's shards.
func buildRef(cfg *Config) (*shardRef, error) {
	gen := cfg.NewGen()
	app := gen.App()
	batches := make([][]types.Event, cfg.Epochs+1)
	for i := range batches {
		batches[i] = workload.Batch(gen, cfg.EpochSize)
	}
	orc, err := shard.NewGroupOracle(app, cfg.Shards, batches)
	if err != nil {
		return nil, err
	}
	return &shardRef{app: app, batches: batches, orc: orc}, nil
}

// groupConfig is the shard.Config of every group the harness runs: cfg's
// mechanism, shape, and fan-out running app over devs (the shards' devices,
// then the coordinator's), releasing to sink (nil for none).
func groupConfig(cfg *Config, app types.App, devs []storage.Device, sink func(int, uint64, []types.Output)) shard.Config {
	return shard.Config{
		GroupShape:    types.GroupShape{RunShape: cfg.RunShape, Shards: cfg.Shards},
		App:           app,
		Kind:          cfg.Kind,
		Devices:       devs[:cfg.Shards],
		CoordDev:      devs[cfg.Shards],
		AdaptiveForce: cfg.force,
		Sink:          sink,
	}
}

// recoverGroup recovers a group of cfg's shape from devs, the surviving
// media of a crashed one, rebuilding the epochs it replays from ref.
func recoverGroup(cfg *Config, ref *shardRef, app types.App, devs []storage.Device, sink func(int, uint64, []types.Output)) (*shard.Group, *shard.GroupReport, error) {
	return shard.GroupRecover(shard.RecoverConfig{
		Config: groupConfig(cfg, app, devs, sink),
		Source: types.BatchSource(ref.batches),
	})
}

// closeGroup releases every shard engine's worker pool.
func closeGroup(g *shard.Group) {
	for i := 0; i < g.Shards(); i++ {
		g.Engine(i).Close()
	}
}

// Enumerate runs the workload fault-free with a counting wrapper on every
// device and returns each device's (target-filtered) write sites. The
// fault-free run doubles as a sanity check: it must complete and already
// match the oracle, or the sweep's premise (faults cause any divergence) is
// wrong.
func Enumerate(cfg Config) (map[string][]storage.WriteSite, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	ref, err := buildRef(&cfg)
	if err != nil {
		return nil, err
	}
	return enumerate(&cfg, ref)
}

func enumerate(cfg *Config, ref *shardRef) (map[string][]storage.WriteSite, error) {
	devs := newBases(cfg)
	traces := make([]*storage.Trace, len(devs))
	for i := range devs {
		traces[i] = storage.NewTrace(devs[i])
		devs[i] = traces[i]
	}
	ledgers := make(shard.Ledgers, cfg.Shards)
	g, err := shard.NewGroup(groupConfig(cfg, ref.app, devs, ledgers.Sink))
	if err != nil {
		return nil, err
	}
	defer closeGroup(g)
	if err := g.Run(ref.batches[:cfg.Epochs]); err != nil {
		return nil, fmt.Errorf("crashtest: fault-free run failed: %w", err)
	}
	if err := ref.check(cfg, g, ledgers, uint64(cfg.Epochs)); err != nil {
		return nil, fmt.Errorf("crashtest: fault-free run already diverges: %w", err)
	}
	out := make(map[string][]storage.WriteSite, len(traces))
	for i, trace := range traces {
		sites := trace.Sites()
		if cfg.Target != "" {
			// The Faulty device counts budget against target-matching writes
			// only, so the k-th filtered site is exactly where budget k dies.
			var filtered []storage.WriteSite
			for _, s := range sites {
				if s.Name == cfg.Target {
					filtered = append(filtered, s)
				}
			}
			sites = filtered
		}
		out[deviceName(cfg.Shards, i)] = sites
	}
	return out, nil
}

// Sweep enumerates every durable write across all shard devices and the
// coordinator's frontier log, and replays the workload once per site (every
// SampleEvery-th) with that one device dying there: the group crashes,
// recovers all shards in parallel from the surviving media, and must come
// back oracle-equivalent — per-shard state, exactly-once application
// outputs, and (with Continue) a live post-recovery epoch. It returns an
// error only when the harness itself cannot run; divergences are reported in
// Result.Failures.
func Sweep(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	ref, err := buildRef(&cfg)
	if err != nil {
		return nil, err
	}
	sitesBy, err := enumerate(&cfg, ref)
	if err != nil {
		return nil, err
	}
	res := &Result{SitesByDevice: sitesBy}
	for d := 0; d <= cfg.Shards; d++ {
		name := deviceName(cfg.Shards, d)
		for k := 0; k < len(sitesBy[name]); k += cfg.SampleEvery {
			res.Runs++
			if err := shardRunOne(&cfg, ref, d, k); err != nil {
				res.Failures = append(res.Failures, Failure{
					Device: name, Kind: cfg.Kind, Mode: cfg.Mode, Site: sitesBy[name][k], Err: err,
				})
			}
		}
	}
	return res, nil
}

// shardCrash runs the workload with device d (shard index, or Shards for
// the coordinator) dying at its k-th target-matching write, crashes the
// group, and recovers it with GroupRecover from the surviving media (the
// Faulty wrapper stays dead; the inner devices are the platters that
// survived — the usual "new disk controller, same platters" restart). One
// set of ledgers spans the crash and the recovery.
func shardCrash(cfg *Config, ref *shardRef, d, k int) (*shard.Group, *shard.GroupReport, shard.Ledgers, error) {
	inner := newBases(cfg)
	devs := append([]storage.Device(nil), inner...)
	devs[d] = storage.NewFaultyMode(inner[d], k, cfg.Mode, cfg.Target)
	ledgers := make(shard.Ledgers, cfg.Shards)
	g, err := shard.NewGroup(groupConfig(cfg, ref.app, devs, ledgers.Sink))
	if err != nil {
		return nil, nil, nil, err
	}
	if procErr := g.Run(ref.batches[:cfg.Epochs]); procErr == nil {
		closeGroup(g)
		return nil, nil, nil, fmt.Errorf("budget %d never hit the injected fault", k)
	}
	g.Crash()
	g2, report, err := recoverGroup(cfg, ref, ref.app, inner, ledgers.Sink)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("group recover: %w", err)
	}
	return g2, report, ledgers, nil
}

// shardRunOne executes one crash-recover-verify cycle with device d dying
// at its k-th target-matching write (see shardCrash).
func shardRunOne(cfg *Config, ref *shardRef, d, k int) error {
	g2, report, ledgers, err := shardCrash(cfg, ref, d, k)
	if err != nil {
		return err
	}
	defer closeGroup(g2)
	last := report.Target
	if last > uint64(cfg.Epochs) {
		return fmt.Errorf("recovered through epoch %d, beyond the %d run", last, cfg.Epochs)
	}
	if err := ref.check(cfg, g2, ledgers, last); err != nil {
		return err
	}
	if cfg.Continue {
		if err := g2.ProcessEpoch(ref.batches[last]); err != nil {
			return fmt.Errorf("post-recovery epoch %d: %w", last+1, err)
		}
		if err := ref.check(cfg, g2, ledgers, last+1); err != nil {
			return fmt.Errorf("post-recovery: %w", err)
		}
	}
	return nil
}

// check verifies g against the oracle through group epoch last: every
// shard's state; with ledgers, exactly-once application delivery per shard —
// what each shard's ledger recorded across its incarnations, each released
// epoch once and in order — and the cross-shard agreement that the shards
// together account for every event of the run exactly once (routing is a
// partition: no event may surface on two shards). A pinned config also
// checks that every engine ran on the forced strategy.
func (r *shardRef) check(cfg *Config, g *shard.Group, ledgers shard.Ledgers, last uint64) error {
	for s := 0; s < g.Shards(); s++ {
		if err := r.orc.CheckState(s, last, g.Engine(s).Store()); err != nil {
			return err
		}
		if f, ctrl := cfg.force, g.Engine(s).Adaptive(); f != nil {
			if ds := ctrl.Decisions(); len(ds) > 0 && (ds[0].Reason != "forced" || ctrl.Current() != *f) {
				return fmt.Errorf("shard %d's controller chose %v (%s), not the pinned %v", s, ctrl.Current(), ds[0].Reason, *f)
			}
		}
	}
	global := make(map[uint64]int)
	for s := range ledgers {
		if err := r.orc.CheckOutputs(s, last, &ledgers[s], g.Engine(s)); err != nil {
			return err
		}
		for _, out := range ledgers[s].Outputs {
			if shard.IsReplication(out) {
				continue
			}
			if prev, dup := global[out.EventSeq]; dup {
				return fmt.Errorf("event %d surfaced on shard %d and shard %d", out.EventSeq, prev, s)
			}
			global[out.EventSeq] = s
		}
	}
	return nil
}

// BoundaryStores runs each mechanism fault-free for the configured number
// of epochs, crashes the group cleanly, recovers it, verifies it against the
// oracle — every processed epoch recovered, state, and exactly-once outputs
// — and returns the recovered groups: the cross-mechanism agreement check,
// since on equivalent histories every mechanism must recover the identical
// store. The caller closes the groups.
func BoundaryStores(cfg Config, kinds []ftapi.Kind) (map[ftapi.Kind]*shard.Group, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	ref, err := buildRef(&cfg)
	if err != nil {
		return nil, err
	}
	out := make(map[ftapi.Kind]*shard.Group, len(kinds))
	for _, kind := range kinds {
		kcfg := cfg
		kcfg.Kind = kind
		devs := newBases(&kcfg)
		ledgers := make(shard.Ledgers, kcfg.Shards)
		g, err := shard.NewGroup(groupConfig(&kcfg, ref.app, devs, ledgers.Sink))
		if err != nil {
			return nil, err
		}
		if err := g.Run(ref.batches[:kcfg.Epochs]); err != nil {
			return nil, fmt.Errorf("%v: %w", kind, err)
		}
		g.Crash()
		g2, _, err := recoverGroup(&kcfg, ref, ref.app, devs, ledgers.Sink)
		if err != nil {
			return nil, fmt.Errorf("%v recover: %w", kind, err)
		}
		out[kind] = g2
		if g2.Epoch() != uint64(kcfg.Epochs) {
			return nil, fmt.Errorf("%v: a clean crash after epoch %d recovered to epoch %d", kind, kcfg.Epochs, g2.Epoch())
		}
		if err := ref.check(&kcfg, g2, ledgers, g2.Epoch()); err != nil {
			return nil, fmt.Errorf("%v: %w", kind, err)
		}
	}
	return out, nil
}
