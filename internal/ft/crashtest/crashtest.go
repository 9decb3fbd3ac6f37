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
//     state of the recovered epoch and the union of delivered outputs for
//     exactly-once delivery.
//
// A sweep failure pinpoints the write site, mechanism, and fault mode that
// diverged — "WAL under torn-write dies at write 7: append[ft] epoch=4 and
// recovers the wrong value for {table 0 row 12}" — which is the whole
// debugging loop for recovery bugs.
package crashtest

import (
	"fmt"
	"sort"

	"morphstreamr/internal/adaptive"
	"morphstreamr/internal/core"
	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/oracle"
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
	// SnapshotEvery, Pipeline — submitting batches as one ProcessEpochs run
	// so epoch N+1 builds while N executes; the durable write sequence must
	// be identical to the sequential schedule, so the same sweep invariants
	// apply verbatim). When every numeric knob is left zero the sweep
	// substitutes DefaultSweepShape, a compact shape that exercises both
	// marker kinds several times per run; partial settings fall through to
	// the tree-wide RunShape defaults.
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
		shape := DefaultSweepShape()
		shape.AutoCommit = c.AutoCommit
		shape.Pipeline = c.Pipeline
		c.RunShape = shape
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

// oracleRef is the reference run: pre-generated per-epoch batches, the
// oracle state after every epoch, and the oracle output of every event.
type oracleRef struct {
	specs   []types.TableSpec
	batches [][]types.Event // batches[e-1] is epoch e's events
	states  []map[types.Key]types.Value
	inits   map[types.TableID]types.Value
	outputs map[uint64]types.Output // by EventSeq
	events  []int                   // events[e] = total events through epoch e
}

func buildOracle(cfg *Config) *oracleRef {
	gen := cfg.NewGen()
	ref := &oracleRef{
		specs:   gen.App().Tables(),
		inits:   make(map[types.TableID]types.Value),
		outputs: make(map[uint64]types.Output),
		states:  []map[types.Key]types.Value{{}}, // states[0]: initial
		events:  []int{0},
	}
	for _, sp := range ref.specs {
		ref.inits[sp.ID] = sp.Init
	}
	o := oracle.New(gen.App())
	total := 0
	for e := 1; e <= cfg.Epochs; e++ {
		batch := workload.Batch(gen, cfg.EpochSize)
		ref.batches = append(ref.batches, batch)
		for _, ev := range batch {
			ref.outputs[ev.Seq] = o.Apply(ev)
		}
		total += len(batch)
		ref.states = append(ref.states, o.State())
		ref.events = append(ref.events, total)
	}
	return ref
}

// value returns the reference value of k after epoch e.
func (r *oracleRef) value(e uint64, k types.Key) types.Value {
	if v, ok := r.states[e][k]; ok {
		return v
	}
	return r.inits[k.Table]
}

// checkState compares a recovered store against the reference state after
// epoch e, returning a description of the first divergences.
func (r *oracleRef) checkState(e uint64, st storeReader) error {
	var diffs []string
	for _, sp := range r.specs {
		for row := uint32(0); row < sp.Rows; row++ {
			k := types.Key{Table: sp.ID, Row: row}
			if got, want := st.Get(k), r.value(e, k); got != want {
				if len(diffs) < 3 {
					diffs = append(diffs, fmt.Sprintf("%v: got %d want %d", k, got, want))
				} else {
					diffs = append(diffs, "...")
					goto done
				}
			}
		}
	}
done:
	if len(diffs) > 0 {
		return fmt.Errorf("state diverges from oracle at epoch %d: %v", e, diffs)
	}
	return nil
}

// storeReader is the slice of store.Store the checker needs.
type storeReader interface {
	Get(types.Key) types.Value
}

// checkOutputs verifies exactly-once delivery: the union of outputs
// delivered before the crash and during/after recovery must contain no
// duplicates, match the oracle value-for-value, and together with the
// still-pending outputs account for every event through epoch last.
func (r *oracleRef) checkOutputs(last uint64, delivered []types.Output, pending int) error {
	sort.Slice(delivered, func(i, j int) bool { return delivered[i].EventSeq < delivered[j].EventSeq })
	seen := make(map[uint64]bool, len(delivered))
	for _, out := range delivered {
		if seen[out.EventSeq] {
			return fmt.Errorf("output for event %d delivered twice", out.EventSeq)
		}
		seen[out.EventSeq] = true
		want, ok := r.outputs[out.EventSeq]
		if !ok {
			return fmt.Errorf("output for unknown event %d delivered", out.EventSeq)
		}
		if out.Kind != want.Kind || len(out.Vals) != len(want.Vals) {
			return fmt.Errorf("output for event %d diverges: got %+v want %+v", out.EventSeq, out, want)
		}
		for i := range out.Vals {
			if out.Vals[i] != want.Vals[i] {
				return fmt.Errorf("output for event %d diverges: got %+v want %+v", out.EventSeq, out, want)
			}
		}
	}
	if got, want := len(delivered)+pending, r.events[last]; got != want {
		return fmt.Errorf("delivered %d + pending %d outputs != %d events through epoch %d",
			len(delivered), pending, want, last)
	}
	return nil
}

// newEngine assembles an engine of cfg's shape over dev.
func newEngine(cfg *Config, dev storage.Device, gen workload.Generator) (*engine.Engine, error) {
	bytes := metrics.NewBytes()
	return engine.New(engine.Config{
		RunShape:      cfg.RunShape,
		App:           gen.App(),
		Device:        dev,
		Mechanism:     core.NewMechanism(cfg.Kind, dev, bytes, msr.Default()),
		Bytes:         bytes,
		AdaptiveForce: cfg.Force,
	})
}

// recoverShape is the crashed run's shape with the live-run-only knobs
// cleared: recovery neither pipelines (it replays one tail sequentially)
// nor re-runs the commit-interval advisor.
func recoverShape(cfg *Config) types.RunShape {
	shape := cfg.RunShape
	shape.Pipeline = false
	shape.AutoCommit = false
	return shape
}

// processAll drives the reference batches through the engine as one
// ProcessEpochs run — pipelined when the engine was built with
// Config.Pipeline — whose first failing epoch surfaces as the error.
func processAll(e *engine.Engine, batches [][]types.Event) error {
	return e.ProcessEpochs(batches)
}

// Enumerate runs the workload fault-free against a counting device and
// returns every durable write site, filtered to cfg.Target. The fault-free
// run doubles as a sanity check: it must complete and already match the
// oracle, or the sweep's premise (faults cause any divergence) is wrong.
func Enumerate(cfg Config) ([]storage.WriteSite, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	ref := buildOracle(&cfg)
	return enumerate(&cfg, ref)
}

func enumerate(cfg *Config, ref *oracleRef) ([]storage.WriteSite, error) {
	st := storage.NewStack(newBase(cfg)).WithTrace()
	trace := st.Trace
	gen := cfg.NewGen()
	e, err := newEngine(cfg, st.MustBuild(), gen)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	if err := processAll(e, ref.batches); err != nil {
		return nil, fmt.Errorf("crashtest: fault-free run failed: %w", err)
	}
	if err := ref.checkState(uint64(cfg.Epochs), e.Store()); err != nil {
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
	ref := buildOracle(&cfg)
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
func runOne(cfg *Config, ref *oracleRef, k int) error {
	inner := newBase(cfg)
	dev := storage.NewStack(inner).WithFaulty(k, cfg.Mode, cfg.Target).MustBuild()
	gen := cfg.NewGen()
	e, err := newEngine(cfg, dev, gen)
	if err != nil {
		return err
	}
	if procErr := processAll(e, ref.batches); procErr == nil {
		return fmt.Errorf("budget %d never hit the injected fault", k)
	}
	// The pre-crash ledger: outputs whose durability gate fired in time.
	crashed := append([]types.Output(nil), e.Delivered()...)
	e.Crash()

	// Recover against the surviving medium. The Faulty wrapper stays dead,
	// so recovery runs on the inner device directly — the usual "new disk
	// controller, same platters" restart.
	bytes := metrics.NewBytes()
	e2, report, err := engine.Recover(engine.Config{
		RunShape:      recoverShape(cfg),
		App:           gen.App(),
		Device:        inner,
		Mechanism:     core.NewMechanism(cfg.Kind, inner, bytes, msr.Default()),
		Bytes:         bytes,
		AdaptiveForce: cfg.Force,
	})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer e2.Close()
	last := report.LastEpoch
	if last > uint64(cfg.Epochs) {
		return fmt.Errorf("recovered through epoch %d, beyond the %d run", last, cfg.Epochs)
	}
	if err := ref.checkState(last, e2.Store()); err != nil {
		return err
	}
	union := append(crashed, e2.Delivered()...)
	if err := ref.checkOutputs(last, union, e2.PendingOutputs()); err != nil {
		return err
	}
	if cfg.Continue && int(last) < len(ref.batches) {
		if err := e2.ProcessEpoch(ref.batches[last]); err != nil {
			return fmt.Errorf("post-recovery epoch %d: %w", last+1, err)
		}
		if err := ref.checkState(last+1, e2.Store()); err != nil {
			return fmt.Errorf("post-recovery: %w", err)
		}
	}
	return nil
}

// BoundaryStores runs each mechanism fault-free for the configured number
// of epochs, crashes it cleanly, recovers, and returns the recovered
// engines — the cross-mechanism agreement check: on equivalent histories,
// every mechanism must recover the identical store.
func BoundaryStores(cfg Config, kinds []ftapi.Kind) (map[ftapi.Kind]*engine.Engine, *oracleRef, error) {
	if err := cfg.normalize(); err != nil {
		return nil, nil, err
	}
	ref := buildOracle(&cfg)
	out := make(map[ftapi.Kind]*engine.Engine, len(kinds))
	for _, kind := range kinds {
		kcfg := cfg
		kcfg.Kind = kind
		dev := newBase(&kcfg)
		gen := kcfg.NewGen()
		e, err := newEngine(&kcfg, dev, gen)
		if err != nil {
			return nil, nil, err
		}
		if err := processAll(e, ref.batches); err != nil {
			return nil, nil, fmt.Errorf("%v: %w", kind, err)
		}
		e.Crash()
		bytes := metrics.NewBytes()
		e2, _, err := engine.Recover(engine.Config{
			RunShape:  recoverShape(&kcfg),
			App:       gen.App(),
			Device:    dev,
			Mechanism: core.NewMechanism(kind, dev, bytes, msr.Default()),
			Bytes:     bytes,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%v recover: %w", kind, err)
		}
		out[kind] = e2
	}
	return out, ref, nil
}

// CheckState exposes the oracle comparison for tests that hold their own
// recovered stores.
func (r *oracleRef) CheckState(e uint64, st storeReader) error { return r.checkState(e, st) }

// Epochs reports how many epochs the reference run covers.
func (r *oracleRef) Epochs() int { return len(r.batches) }
