// Package bench is the experiment harness behind every table and figure of
// the paper's evaluation (Section VIII). Each FigNN function reproduces one
// figure: it builds the paper's workload configuration, runs the engine
// through a snapshot-then-crash protocol under each fault-tolerance
// mechanism, and returns the measured series as a printable table.
//
// The crash protocol mirrors the paper's definition of recovery time
// ("the duration in which an application recovers from the latest
// checkpoint to the failure point"): the engine processes SnapshotEvery
// epochs (the last of which persists a checkpoint), then PostEpochs more,
// then crashes; recovery replays exactly the post-checkpoint epochs.
//
// Absolute numbers depend on the host; the claims these experiments
// reproduce are the paper's shapes — who wins, by what rough factor, and
// where the crossovers sit. EXPERIMENTS.md records both.
package bench

import (
	"fmt"
	"sort"
	"time"

	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/vtime"
	"morphstreamr/internal/workload"
)

// Scale sizes an experiment run. The defaults match the harness binary;
// the root bench_test.go shrinks them so `go test -bench` stays fast.
type Scale struct {
	// RunShape carries the engine knobs — Workers (runtime and recovery
	// parallelism), SnapshotEvery (the checkpoint interval; the crash
	// happens PostEpochs after the checkpoint), CommitEvery and
	// SnapshotBase — under the tree-wide defaulting rules. Experiments that
	// vary one knob copy the Scale and overwrite just that field.
	types.RunShape
	// BatchSize is the punctuation interval in events.
	BatchSize int
	// PostEpochs is the number of epochs between checkpoint and crash —
	// the volume recovery must replay.
	PostEpochs int
	// SSD applies the paper's storage performance envelope.
	SSD bool
	// Obs, when non-nil, wires the observability layer through every run
	// the scale shapes: epoch and recovery spans plus engine counters land
	// in its registry and tracer (served live by obs.Serve). Virtually
	// timed measurements are unaffected; wall-clock ones pay the span cost.
	Obs *obs.Observer
}

// DefaultScale returns the harness binary's configuration. Eight workers
// is deliberately above the low-core regime: the paper observes (and
// Figure 13 here reproduces) that WAL/DL/LV are competitive with
// MorphStreamR at very low core counts, with the separation appearing as
// cores grow.
func DefaultScale() Scale {
	return Scale{
		RunShape:  types.RunShape{Workers: 8, SnapshotEvery: 8},
		BatchSize: 4096, PostEpochs: 4, SSD: true,
	}
}

// QuickScale returns a reduced configuration for Go benchmarks and smoke
// tests.
func QuickScale() Scale {
	return Scale{
		RunShape:  types.RunShape{Workers: 4, SnapshotEvery: 4},
		BatchSize: 1024, PostEpochs: 2, SSD: false,
	}
}

// Run is the outcome of one scenario: runtime measurements from the
// pre-crash phase, and recovery measurements from the post-crash replay.
type Run struct {
	Kind ftapi.Kind
	// RuntimeThroughput is events/second during normal processing.
	RuntimeThroughput float64
	// Runtime is the fault-tolerance overhead breakdown (Figure 12d).
	Runtime metrics.RuntimeBreakdown
	// Recovery is nil for NAT (native execution cannot recover).
	Recovery *engine.RecoveryReport
	// PeakLiveBytes is the high-water in-memory artifact footprint
	// (Figure 12c); LogBytes the cumulative durable log volume.
	PeakLiveBytes int64
	LogBytes      int64
	// CommitEvery is the effective log commitment interval.
	CommitEvery int
	// Events is the total number of input events processed pre-crash.
	Events int
}

// RecoveryThroughput returns events recovered per second, or 0 for NAT.
func (r *Run) RecoveryThroughput() float64 {
	if r.Recovery == nil {
		return 0
	}
	return r.Recovery.Throughput()
}

// RecoveryTime returns the (simulated W-worker) recovery duration, or 0
// for NAT.
func (r *Run) RecoveryTime() time.Duration {
	if r.Recovery == nil {
		return 0
	}
	return r.Recovery.SimWall()
}

// Scenario fully describes one run.
type Scenario struct {
	// Gen constructs a fresh generator; repeated runs must see identical
	// streams, so the scenario owns construction.
	Gen   func() workload.Generator
	Kind  ftapi.Kind
	Scale Scale
	// MSR overrides MorphStreamR's options (nil = all optimizations on).
	MSR *msr.Options
	// AutoCommit lets the MSR advisor pick the commit interval from the
	// first epoch (Figure 9's "advised" column).
	AutoCommit bool
	// AsyncCommit moves durable commits off the critical path (extension).
	AsyncCommit bool
	// Compression compresses durable payloads (extension).
	Compression bool
	// Repeat runs the scenario several times and reports the run with the
	// median runtime throughput, damping wall-clock noise on short runs.
	// Recovery measurements are virtually timed and already stable.
	// Zero means one run.
	Repeat int
	// Prof, when non-nil, profiles the recovery replay: per-virtual-worker
	// timelines, stall attribution, and critical-path bounds land in
	// Run.Recovery.Profile. Use with Repeat <= 1 — a profiler accumulates
	// phases across every recovery it observes.
	Prof *vtime.Profiler
}

// Execute runs the scenario: process SnapshotEvery+PostEpochs epochs,
// crash, recover. With Repeat > 1 the median-throughput run is reported.
func Execute(s Scenario) (Run, error) {
	n := s.Repeat
	if n < 1 {
		n = 1
	}
	runs := make([]Run, 0, n)
	for i := 0; i < n; i++ {
		r, err := executeOnce(s)
		if err != nil {
			return Run{}, err
		}
		runs = append(runs, r)
	}
	sort.Slice(runs, func(i, j int) bool {
		return runs[i].RuntimeThroughput < runs[j].RuntimeThroughput
	})
	return runs[len(runs)/2], nil
}

// executeOnce builds the scenario's engine — an in-memory device through
// the storage stack (compression below the SSD model), the mechanism with
// the scenario's MSR options — runs it, crashes it, and recovers it with a
// fresh mechanism over the same device.
func executeOnce(s Scenario) (Run, error) {
	st := storage.NewStack(storage.NewMem())
	if s.Compression {
		st.WithCompression()
	}
	if s.Scale.SSD {
		st.WithSSD()
	}
	dev, err := st.Build()
	if err != nil {
		return Run{}, err
	}
	opts := msr.Default()
	if s.MSR != nil {
		opts = *s.MSR
	}
	gen := s.Gen()
	cfg := engine.Config{
		RunShape:    s.Scale.RunShape,
		AutoCommit:  s.AutoCommit,
		App:         gen.App(),
		Device:      dev,
		AsyncCommit: s.AsyncCommit,
		Obs:         s.Scale.Obs,
	}
	bytes := metrics.NewBytes()
	cfg.Mechanism, cfg.Bytes = ft.New(s.Kind, dev, bytes, opts), bytes
	eng, err := engine.New(cfg)
	if err != nil {
		return Run{}, err
	}
	defer eng.Close()
	for i := 0; i < s.Scale.SnapshotEvery+s.Scale.PostEpochs; i++ {
		if err := eng.ProcessEpoch(workload.Batch(gen, s.Scale.BatchSize)); err != nil {
			return Run{}, fmt.Errorf("process: %w", err)
		}
	}
	out := Run{
		Kind:              s.Kind,
		RuntimeThroughput: eng.Throughput(),
		Runtime:           eng.Runtime(),
		PeakLiveBytes:     bytes.PeakLive(),
		LogBytes:          storage.SumBytes(dev.BytesWritten()),
		CommitEvery:       eng.CommitEvery(),
		Events:            eng.Events(),
	}
	if s.Kind == ftapi.NAT {
		return out, nil
	}
	eng.Crash()
	bytes = metrics.NewBytes()
	cfg.Mechanism, cfg.Bytes = ft.New(s.Kind, dev, bytes, opts), bytes
	cfg.RecoveryProfiler = s.Prof
	rec, report, err := engine.Recover(cfg)
	if err != nil {
		return Run{}, fmt.Errorf("recover: %w", err)
	}
	rec.Close()
	out.Recovery = report
	return out, nil
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// fnum formats a float compactly.
func fnum(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// defaultMSR returns the fully enabled MorphStreamR options (a fresh copy
// callers may mutate).
func defaultMSR() msr.Options { return msr.Default() }
