// Package crashtest is the exhaustive crash-point sweep harness: it proves
// that recovery is correct no matter which durable write the device dies
// on, for every fault-tolerance mechanism and every fault flavour.
//
// The harness exploits determinism end to end. A seeded workload produces
// the same event sequence on every run, and the engine issues the same
// durable writes in the same order for it, so the sweep can:
//
//  1. run the workload once against a counting device (storage.Trace) to
//     enumerate every durable write — input appends, group commits,
//     snapshot blobs, GC truncations — as storage.WriteSite values;
//  2. run an oracle pass capturing the reference state after every epoch
//     and the reference output of every event;
//  3. for each enumerated site k, re-run the same workload against a
//     storage.Faulty device that dies exactly at write k (fail-stop, torn
//     write, or dropped tail), crash the engine, recover from the
//     surviving medium, and check the recovered store against the oracle
//     state of the recovered epoch and the outputs one recording sink kept
//     across the crash for exactly-once delivery.
//
// A sweep failure pinpoints the write site, mechanism, and fault mode that
// diverged — "WAL under torn-write dies at write 7: append[ft] epoch=4 and
// recovers the wrong value for {table 0 row 12}" — which is the whole
// debugging loop for recovery bugs.
package crashtest

import (
	"fmt"

	"morphstreamr/internal/adaptive"
	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// Config describes one sweep: a mechanism, a seeded workload shape, and a
// fault flavour.
type Config struct {
	// Kind is the fault-tolerance mechanism under test.
	Kind ftapi.Kind
	// NewGen returns a fresh generator of the same seeded workload; it is
	// called once per pass, so every pass sees the identical event stream.
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
	// Mode is what the dying write leaves on the medium.
	Mode storage.FaultMode
	// Target, when non-empty, restricts the sweep to writes touching that
	// log or blob (e.g. storage.LogFT sweeps only group-commit records).
	Target string
	// Continue additionally processes one post-recovery epoch and checks
	// the state again, proving the recovered engine is live, not a husk.
	Continue bool
	// Store selects the base medium under the fault wrappers: "mem" (the
	// default flat in-memory device) or "seg", the bounded segment store —
	// whose durable write sites (seals, index pops, segment reuse) the
	// sweep then crosses exactly like any other.
	Store string
	// SegmentBytes sets the segment payload cap when Store is "seg"; small
	// values force records across segment seals so torn writes land inside
	// and astride sealed segments. Zero keeps the SegStore default.
	SegmentBytes int
	// Force pins every engine of the sweep — crashed and recovered — to one
	// execution strategy (engine.Config.AdaptiveForce). Nil leaves the
	// choice to each engine's controller, which on a small host settles on
	// sequential execution; {steal, Workers} keeps a sweep on the
	// work-stealing pool so the race detector crosses it under crash
	// injection.
	Force *adaptive.Strategy
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
	switch c.Store {
	case "":
		c.Store = "mem"
	case "mem", "seg":
	default:
		return fmt.Errorf("crashtest: unknown store %q (want \"mem\" or \"seg\")", c.Store)
	}
	return nil
}

// newBase builds the configured base medium. Every pass — enumeration,
// oracle, and each crash replay — uses a fresh one so runs stay identical.
func newBase(cfg *Config) storage.Device {
	if cfg.Store == "seg" {
		return storage.NewSegStore(storage.SegConfig{SegmentBytes: cfg.SegmentBytes})
	}
	return storage.NewMem()
}

// Failure records one crash point whose recovery diverged.
type Failure struct {
	Kind ftapi.Kind
	Mode storage.FaultMode
	Site storage.WriteSite
	Err  error
}

// String renders the failure the way acceptance reports want it: exact
// write site, mechanism, and fault mode.
func (f Failure) String() string {
	return fmt.Sprintf("%v under %v dies at %v: %v", f.Kind, f.Mode, f.Site, f.Err)
}

// Result summarises one sweep.
type Result struct {
	// Sites are the crash points swept (already filtered to Target).
	Sites []storage.WriteSite
	// Runs counts full crash-recover-verify cycles executed.
	Runs int
	// Failures lists every diverged crash point; empty means the sweep
	// passed.
	Failures []Failure
}

// engineConfig assembles an engine of cfg's kind and shape over dev,
// releasing to sink.
func engineConfig(cfg *Config, dev storage.Device, app types.App, sink func(uint64, []types.Output)) engine.Config {
	bytes := metrics.NewBytes()
	return engine.Config{
		RunShape:      cfg.RunShape,
		App:           app,
		Device:        dev,
		Mechanism:     ft.New(cfg.Kind, dev, bytes, msr.Default()),
		Bytes:         bytes,
		AdaptiveForce: cfg.Force,
		Sink:          sink,
	}
}

// runEpochs processes batches on e, one epoch each, stopping at the first
// error.
func runEpochs(e *engine.Engine, batches [][]types.Event) error {
	for _, b := range batches {
		if err := e.ProcessEpoch(b); err != nil {
			return err
		}
	}
	return nil
}

// Enumerate runs the workload fault-free against a counting device and
// returns every durable write site, filtered to cfg.Target. The fault-free
// run doubles as a sanity check: it must complete and already match the
// oracle, or the sweep's premise (faults cause any divergence) is wrong.
func Enumerate(cfg Config) ([]storage.WriteSite, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	ref, err := buildRef(&cfg, 1, cfg.Epochs)
	if err != nil {
		return nil, err
	}
	return enumerate(&cfg, ref)
}

func enumerate(cfg *Config, ref *shardRef) ([]storage.WriteSite, error) {
	st := storage.NewStack(newBase(cfg)).WithTrace()
	trace := st.Trace
	gen := cfg.NewGen()
	e, err := engine.New(engineConfig(cfg, st.MustBuild(), gen.App(), nil))
	if err != nil {
		return nil, err
	}
	defer e.Close()
	if err := runEpochs(e, ref.batches); err != nil {
		return nil, fmt.Errorf("crashtest: fault-free run failed: %w", err)
	}
	if err := ref.orc.CheckState(0, uint64(cfg.Epochs), e.Store()); err != nil {
		return nil, fmt.Errorf("crashtest: fault-free run already diverges: %w", err)
	}
	sites := trace.Sites()
	if cfg.Target == "" {
		return sites, nil
	}
	// The Faulty device counts budget against target-matching writes only,
	// so the k-th filtered site is exactly where budget k dies.
	var filtered []storage.WriteSite
	for _, s := range sites {
		if s.Name == cfg.Target {
			filtered = append(filtered, s)
		}
	}
	return filtered, nil
}

// Sweep enumerates every durable write of the configured run and replays
// the workload once per site with the device dying there, verifying each
// recovery against the oracle. It returns an error only when the harness
// itself cannot run; divergences are reported in Result.Failures.
func Sweep(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	ref, err := buildRef(&cfg, 1, cfg.Epochs)
	if err != nil {
		return nil, err
	}
	sites, err := enumerate(&cfg, ref)
	if err != nil {
		return nil, err
	}
	res := &Result{Sites: sites}
	for k, site := range sites {
		res.Runs++
		if err := runOne(&cfg, ref, k); err != nil {
			res.Failures = append(res.Failures, Failure{
				Kind: cfg.Kind, Mode: cfg.Mode, Site: site, Err: err,
			})
		}
	}
	return res, nil
}

// runOne executes one crash-recover-verify cycle with the device dying at
// the k-th (target-matching) write.
func runOne(cfg *Config, ref *shardRef, k int) error {
	inner := newBase(cfg)
	dev := storage.NewStack(inner).WithFaulty(k, cfg.Mode, cfg.Target).MustBuild()
	gen := cfg.NewGen()
	// One ledger spans the crash: before it, the outputs whose durability
	// gate fired in time; after it, what recovery released.
	ledger := &engine.Ledger{}
	e, err := engine.New(engineConfig(cfg, dev, gen.App(), ledger.Sink))
	if err != nil {
		return err
	}
	if procErr := runEpochs(e, ref.batches); procErr == nil {
		return fmt.Errorf("budget %d never hit the injected fault", k)
	}
	e.Crash()

	// Recover against the surviving medium. The Faulty wrapper stays dead,
	// so recovery runs on the inner device directly — the usual "new disk
	// controller, same platters" restart.
	e2, report, err := engine.Recover(engineConfig(cfg, inner, gen.App(), ledger.Sink))
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer e2.Close()
	last := report.LastEpoch
	if last > uint64(cfg.Epochs) {
		return fmt.Errorf("recovered through epoch %d, beyond the %d run", last, cfg.Epochs)
	}
	if err := ref.orc.CheckState(0, last, e2.Store()); err != nil {
		return err
	}
	if err := ref.orc.CheckOutputs(0, last, ledger, e2); err != nil {
		return err
	}
	if cfg.Continue && int(last) < len(ref.batches) {
		if err := e2.ProcessEpoch(ref.batches[last]); err != nil {
			return fmt.Errorf("post-recovery epoch %d: %w", last+1, err)
		}
		if err := ref.orc.CheckState(0, last+1, e2.Store()); err != nil {
			return fmt.Errorf("post-recovery: %w", err)
		}
	}
	return nil
}

// BoundaryStores runs each mechanism fault-free for the configured number
// of epochs, crashes it cleanly, recovers, and returns the recovered
// engines — the cross-mechanism agreement check: on equivalent histories,
// every mechanism must recover the identical store.
func BoundaryStores(cfg Config, kinds []ftapi.Kind) (map[ftapi.Kind]*engine.Engine, *shard.GroupOracle, error) {
	if err := cfg.normalize(); err != nil {
		return nil, nil, err
	}
	ref, err := buildRef(&cfg, 1, cfg.Epochs)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[ftapi.Kind]*engine.Engine, len(kinds))
	for _, kind := range kinds {
		kcfg := cfg
		kcfg.Kind = kind
		dev := newBase(&kcfg)
		gen := kcfg.NewGen()
		e, err := engine.New(engineConfig(&kcfg, dev, gen.App(), nil))
		if err != nil {
			return nil, nil, err
		}
		if err := runEpochs(e, ref.batches); err != nil {
			return nil, nil, fmt.Errorf("%v: %w", kind, err)
		}
		e.Crash()
		e2, _, err := engine.Recover(engineConfig(&kcfg, dev, gen.App(), nil))
		if err != nil {
			return nil, nil, fmt.Errorf("%v recover: %w", kind, err)
		}
		out[kind] = e2
	}
	return out, ref.orc, nil
}
