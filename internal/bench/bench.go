// Package bench is the experiment harness behind every table and figure of
// the paper's evaluation (Section VIII). Each FigNN function reproduces one
// figure: it builds the paper's workload configuration, runs it on the
// host clients use — a shard.Group, here of one shard — through a
// snapshot-then-crash protocol under each fault-tolerance mechanism, and
// returns the measured series as a printable table.
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
	"cmp"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/vtime"
	"morphstreamr/internal/workload"
)

// Scale sizes an experiment run: DefaultScale is what `cmd/bench figures`
// runs, QuickScale what it runs under -quick and what the tests run.
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

// DefaultScale returns the full-size configuration. Eight workers
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

// QuickScale returns the reduced configuration for CI and the tests.
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
	// Runtime is the fault-tolerance overhead breakdown (Figure 12d); its
	// IO includes the host's input appends.
	Runtime metrics.RuntimeBreakdown
	// Recovery is nil for NAT (native execution cannot recover).
	Recovery *engine.RecoveryReport
	// PeakLiveBytes is the high-water in-memory artifact footprint
	// (Figure 12c); LogBytes the cumulative durable log volume.
	PeakLiveBytes int64
	LogBytes      int64
	// Events is the total number of input events processed pre-crash.
	Events int
}

// RecoveryThroughput returns events recovered per second, or 0 for NAT.
func (r Run) RecoveryThroughput() float64 {
	if r.Recovery == nil {
		return 0
	}
	return r.Recovery.Throughput()
}

// RecoveryTime returns the (simulated W-worker) recovery duration, or 0
// for NAT.
func (r Run) RecoveryTime() time.Duration {
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
	// Unpriced recovers as a heal does, without the cost model; every
	// other run prices its recovery with vtime.FixedCosts.
	Unpriced bool
}

// Execute runs the scenario: process SnapshotEvery+PostEpochs epochs,
// crash, recover. With Repeat > 1 the median-throughput run is reported.
func Execute(s Scenario) (Run, error) {
	var runs []Run
	for range max(s.Repeat, 1) {
		r, err := executeOnce(s)
		if err != nil {
			return Run{}, err
		}
		runs = append(runs, r)
	}
	slices.SortFunc(runs, func(a, b Run) int { return cmp.Compare(a.RuntimeThroughput, b.RuntimeThroughput) })
	return runs[len(runs)/2], nil
}

// executeOnce builds the scenario's host — a one-shard group over a fresh
// in-memory device, compressed below the SSD model so the model charges the
// bytes that reach the medium — runs it, crashes it, and recovers it over
// the same device. As the host, it persists each epoch's input to the
// device's input log before feeding it (Figure 10 step 1), and recovery
// reads the inputs back from that log.
func executeOnce(s Scenario) (Run, error) {
	var dev storage.Device = storage.NewMem()
	if s.Compression {
		dev = storage.NewCompressed(dev)
	}
	if s.Scale.SSD {
		dev = storage.DefaultSSD(dev)
	}
	gen := s.Gen()
	cfg := shard.Config{
		GroupShape: types.GroupShape{RunShape: s.Scale.RunShape},
		App:        gen.App(),
		Kind:       s.Kind,
		MSR:        s.MSR,
		Devices:    []storage.Device{dev},
		CoordDev:   storage.NewMem(),
		Obs:        s.Scale.Obs,
		LocalReads: true, // one shard: every read is local
	}
	g, err := shard.NewGroup(cfg)
	if err != nil {
		return Run{}, err
	}
	defer g.Engine(0).Close()
	var wall, inputIO time.Duration
	for i := 0; i < s.Scale.SnapshotEvery+s.Scale.PostEpochs; i++ {
		batch := workload.Batch(gen, s.Scale.BatchSize)
		t0 := time.Now()
		if err := persistInput(g, dev, s.Kind, batch); err != nil {
			return Run{}, fmt.Errorf("persist input: %w", err)
		}
		inputIO += time.Since(t0)
		if err := g.ProcessEpoch(batch); err != nil {
			return Run{}, fmt.Errorf("process: %w", err)
		}
		wall += time.Since(t0)
	}
	eng := g.Engine(0)
	out := Run{
		Kind:              s.Kind,
		RuntimeThroughput: metrics.Throughput(eng.Events(), wall),
		Runtime:           eng.Runtime(),
		PeakLiveBytes:     eng.Bytes().PeakLive(),
		LogBytes:          storage.SumBytes(dev.BytesWritten()),
		Events:            eng.Events(),
	}
	out.Runtime.IO += inputIO
	if s.Kind == ftapi.NAT {
		return out, nil
	}
	g.Crash()
	src, err := inputSource(dev)
	if err != nil {
		return Run{}, fmt.Errorf("recover inputs: %w", err)
	}
	runtime.GC() // recovery's device reads are wall-timed: keep GC out of them
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rc := shard.RecoverConfig{Config: cfg, Source: src, Unpriced: s.Unpriced}
	if s.Prof != nil {
		rc.Profilers = []*vtime.Profiler{s.Prof}
	}
	rg, report, err := shard.GroupRecover(rc)
	if err != nil {
		return Run{}, fmt.Errorf("recover: %w", err)
	}
	rg.Engine(0).Close()
	out.Recovery = report.Reports[0]
	return out, nil
}

// persistInput appends the batch g's next epoch processes to dev's input
// log, once the records at and below a replay horizon that just moved are
// released: no recovery reads them. Native execution recovers nothing and
// persists nothing.
func persistInput(g *shard.Group, dev storage.Device, kind ftapi.Kind, batch []types.Event) error {
	if kind == ftapi.NAT {
		return nil
	}
	if h := g.Horizon(); h > 0 && h == g.Epoch() {
		if err := storage.Release(dev, storage.LogInput, h); err != nil {
			return err
		}
	}
	// Pooled encode buffer: the device copies the payload on Append, so the
	// buffer recycles as soon as the write returns.
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	codec.EncodeEventsInto(w, batch)
	g.Engine(0).Bytes().Written("input", int64(w.Len()))
	return dev.Append(storage.LogInput, storage.Record{Epoch: g.Epoch() + 1, Payload: w.Bytes()})
}

// inputSource decodes dev's input log into the recovery Source.
func inputSource(dev storage.Device) (shard.Source, error) {
	cur, err := storage.ReadFrom(dev, storage.LogInput, 0)
	if err != nil {
		return nil, err
	}
	recs, err := storage.ReadAll(cur)
	if err != nil {
		return nil, err
	}
	batches := map[uint64][]types.Event{}
	for _, rec := range recs {
		if batches[rec.Epoch], err = codec.DecodeEvents(rec.Payload); err != nil {
			return nil, fmt.Errorf("epoch %d: %w", rec.Epoch, err)
		}
	}
	return func(ep uint64) ([]types.Event, bool) {
		b, ok := batches[ep]
		return b, ok
	}, nil
}

// Table is a printable experiment result.
type Table struct {
	Title  string     `json:"title"`
	Note   string     `json:"note,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
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

// fnums formats a series compactly.
func fnums(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fnum(v)
	}
	return out
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// orDefault is a figure's sweep: the points given, or its default ones.
func orDefault[T any](points, def []T) []T {
	if len(points) == 0 {
		return def
	}
	return points
}
