// Package core is the public façade of the library: it wires an
// application, a durable device, a fault-tolerance mechanism, and the
// engine into a System with a small lifecycle — process, crash, recover —
// and exposes the measurements the paper's evaluation is built from.
//
// Quick start:
//
//	gen := workload.NewSL(workload.DefaultSLParams())
//	sys, _ := core.New(gen.App(), core.Config{
//		RunShape: core.RunShape{Workers: 4},
//		FT:       core.MSR,
//	})
//	for i := 0; i < 12; i++ {
//		sys.ProcessBatch(workload.Batch(gen, 4096))
//	}
//	sys.Crash()
//	sys, report, _ := sys.Recover()
//	fmt.Println(report.Wall, report.Breakdown)
package core

import (
	"fmt"

	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/vtime"
)

// RunShape is the shared run-configuration surface (Workers, CommitEvery,
// SnapshotEvery, SnapshotBase) with the tree's one zero-value and
// validation rule; see types.RunShape. Re-exported so example code only
// imports core.
type RunShape = types.RunShape

// Config selects the system composition.
type Config struct {
	// RunShape carries the run knobs: Workers (zero means 1), CommitEvery
	// (zero means 1; must divide SnapshotEvery), SnapshotEvery (zero means
	// 8) and SnapshotBase (zero means every snapshot is a full one).
	RunShape
	// FT is the fault-tolerance scheme (NAT, CKPT, WAL, DL, LV, MSR).
	FT ftapi.Kind
	// AutoCommit lets the MSR advisor pick CommitEvery from the first
	// epoch (workload-aware log commitment); see engine.Config.AutoCommit.
	AutoCommit bool
	// AsyncCommit moves durable group-commit writes off the critical path
	// (Section VII's Lineage Stash-style direction); outputs still release
	// only after their commit record lands, preserving exactly-once.
	AsyncCommit bool
	// MSR configures MorphStreamR's logging and recovery optimizations;
	// ignored by other schemes. Zero value means msr.Default().
	MSR *msr.Options
	// Device is the durable storage; nil allocates an in-memory device.
	Device storage.Device
	// SSDModel wraps the device in the paper's Optane SSD performance
	// envelope (2 GB/s, 146 kIOPS), so I/O costs shape benchmarks the way
	// the paper's hardware shaped theirs.
	SSDModel bool
	// Compression DEFLATE-compresses every durable payload (Section VII's
	// log-compression direction): smaller logs and snapshots for extra CPU.
	Compression bool
	// Obs, when non-nil, wires the observability layer through the engine:
	// epoch/recovery spans, throughput counters, latency histograms, and
	// byte accounting, all served live by obs.Serve.
	Obs *obs.Observer
	// RecoveryProfiler, when non-nil, records the next recovery's
	// per-virtual-worker timeline, stall attribution, and critical-path
	// bounds (see vtime.Profiler); the report lands in
	// engine.RecoveryReport.Profile and, with Obs set, behind /recovery.
	RecoveryProfiler *vtime.Profiler
}

func (c *Config) normalize() error {
	if err := c.RunShape.Normalize(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.MSR == nil {
		d := msr.Default()
		c.MSR = &d
	}
	if c.Device == nil {
		c.Device = storage.NewMem()
	}
	return nil
}

// Re-exported scheme identifiers, so example code only imports core.
const (
	NAT  = ftapi.NAT
	CKPT = ftapi.CKPT
	WAL  = ftapi.WAL
	DL   = ftapi.DL
	LV   = ftapi.LV
	MSR  = ftapi.MSR
)

// System is one running instance: an application bound to an engine and a
// fault-tolerance mechanism over a durable device.
type System struct {
	App    types.App
	Cfg    Config
	Engine *engine.Engine

	bytes *metrics.Bytes
	// ledger records every released output; the systems Recover returns
	// share it, so it spans crashes.
	ledger *engine.Ledger
}

// New assembles a system with fresh state.
func New(app types.App, cfg Config) (*System, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	// Wrap the device through the canonical stack so the legal order —
	// compression below the SSD throttle — is enforced in one place.
	st := storage.NewStack(cfg.Device)
	if cfg.Compression {
		st.WithCompression()
	}
	if cfg.SSDModel {
		st.WithSSD()
	}
	dev, err := st.Build()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	bytes := metrics.NewBytes()
	mech := ft.New(cfg.FT, dev, bytes, *cfg.MSR)
	ledger := &engine.Ledger{}
	eng, err := engine.New(engine.Config{
		RunShape:    cfg.RunShape,
		AutoCommit:  cfg.AutoCommit,
		App:         app,
		Device:      dev,
		Mechanism:   mech,
		AsyncCommit: cfg.AsyncCommit,
		Bytes:       bytes,
		Obs:         cfg.Obs,
		Sink:        ledger.Sink,
	})
	if err != nil {
		return nil, err
	}
	keep := cfg
	keep.Device = dev
	keep.SSDModel = false    // already applied
	keep.Compression = false // already applied
	return &System{App: app, Cfg: keep, Engine: eng, bytes: bytes, ledger: ledger}, nil
}

// Delivered returns every output the system released downstream, in release
// order, across every crash and Recover since New (exactly once each: a
// recovery releases only what never was). Callers must not mutate it.
func (s *System) Delivered() []types.Output { return s.ledger.Outputs }

// ProcessBatch ingests one punctuation interval's events.
func (s *System) ProcessBatch(events []types.Event) error {
	return s.Engine.ProcessEpoch(events)
}

// Close releases the engine's worker pool. A system that is done — it
// finished its stream, or was recovered from — is closed by its owner;
// Crash closes too, and Close is idempotent.
func (s *System) Close() { s.Engine.Close() }

// Crash models a power failure: all volatile state is lost; only the
// durable device survives (and is reused by Recover).
func (s *System) Crash() {
	s.Engine.Crash()
}

// Recover rebuilds a working system from the durable device, returning it
// together with the recovery report. The recovered system keeps recording
// into the crashed one's ledger, so Delivered spans the crash.
func (s *System) Recover() (*System, *engine.RecoveryReport, error) {
	bytes := metrics.NewBytes()
	mech := ft.New(s.Cfg.FT, s.Cfg.Device, bytes, *s.Cfg.MSR)
	eng, report, err := engine.Recover(engine.Config{
		RunShape:         s.Cfg.RunShape,
		App:              s.App,
		Device:           s.Cfg.Device,
		Mechanism:        mech,
		AsyncCommit:      s.Cfg.AsyncCommit,
		Bytes:            bytes,
		Obs:              s.Cfg.Obs,
		RecoveryProfiler: s.Cfg.RecoveryProfiler,
		Sink:             s.ledger.Sink,
	})
	if err != nil {
		return nil, nil, err
	}
	return &System{App: s.App, Cfg: s.Cfg, Engine: eng, bytes: bytes, ledger: s.ledger}, report, nil
}

// Bytes exposes the artifact-size accounting of the current incarnation.
func (s *System) Bytes() *metrics.Bytes { return s.bytes }
