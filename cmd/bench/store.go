package main

import (
	"fmt"

	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// Run shape shared by every replay cell: commit markers every 2 epochs,
// snapshots (and therefore segment releases) every 4.
const (
	commitEvery   = 2
	snapshotEvery = 4
	// tailEpochs pushes each run past its last snapshot so the recovery has
	// a real tail to replay — the same 2-epoch window at every run length.
	tailEpochs = 2
)

// ReplayCell is one (mechanism, run length) measurement.
type ReplayCell struct {
	Kind   string `json:"kind"`
	Epochs int    `json:"epochs"`
	Events int    `json:"events_total"`
	// EventsReplayed is the recovery's replay volume: inputs reloaded above
	// the snapshot frontier. Bounded replay means this number is identical
	// across run lengths.
	EventsReplayed int    `json:"events_replayed"`
	SnapshotEpoch  uint64 `json:"snapshot_epoch"`
	LastEpoch      uint64 `json:"last_epoch"`
	// LiveSegments is the max live (unreleased) segment count over the
	// input, ft, and checkpoint logs at the crash point; SegmentBudget is
	// the device's configured per-log cap, which the run ran under without
	// ever hitting ErrSegmentBudget.
	LiveSegments     int `json:"live_segments"`
	ReleasedSegments int `json:"released_segments"`
	SegmentBudget    int `json:"segment_budget"`
}

// IncCell is one dirty-fraction measurement of incremental checkpoints.
type IncCell struct {
	Rows       uint32  `json:"rows"`
	EpochSize  int     `json:"epoch_size"`
	BaseCount  int     `json:"base_count"`
	DeltaCount int     `json:"delta_count"`
	AvgBase    float64 `json:"avg_base_bytes"`
	AvgDelta   float64 `json:"avg_delta_bytes"`
	// Ratio is avg delta bytes over avg base bytes — the incremental
	// saving; it must stay below 1 and shrink as the table grows (the
	// per-interval dirty fraction falls).
	Ratio float64 `json:"delta_over_base"`
}

// StoreChecks is the bounded-log headline numbers and the verdicts the run
// recorded for them.
type StoreChecks struct {
	IncrementalBelowFullPass     bool    `json:"incremental_below_full_pass"`
	MaxDeltaOverBase             float64 `json:"max_delta_over_base"`
	MaxEventsReplayed            int     `json:"max_events_replayed"`
	MaxLiveSegments              int     `json:"max_live_segments"`
	RatioTracksDirtyFractionPass bool    `json:"ratio_tracks_dirty_fraction_pass"`
	ReplayBudgetEvents           int     `json:"replay_budget_events"`
	ReplayFlatPass               bool    `json:"replay_flat_pass"`
	ReplayWithinBudgetPass       bool    `json:"replay_within_budget_pass"`
	SegmentBudget                int     `json:"segment_budget"`
	SegmentsBoundedPass          bool    `json:"segments_bounded_pass"`
}

// StoreReport is the file layout of BENCH_store.json.
type StoreReport struct {
	Host
	Note        string       `json:"note"`
	Replay      []ReplayCell `json:"replay"`
	Incremental []IncCell    `json:"incremental"`
	Checks      StoreChecks  `json:"checks"`
}

// The store suite's fixed shape: 24-event epochs of the seeded SL stream on
// 2 KiB segments under a 24-segment per-log budget. Only the grids grow
// with size.
const (
	storeEpochSize = 24
	storeSegBytes  = 2048
	storeSegBudget = 24
	storeSeed      = 41
)

// storeGrid is the store suite's grid at one size: the run lengths every
// mechanism replays after, and the table sizes the incremental-checkpoint
// ratio is taken over.
type storeGrid struct {
	runLengths []int
	incRows    []uint32
}

func storePlan(quick bool) storeGrid {
	if quick {
		return storeGrid{runLengths: []int{12, 24}, incRows: []uint32{512, 2048}}
	}
	return storeGrid{runLengths: []int{12, 24, 48}, incRows: []uint32{512, 2048, 8192}}
}

var storeSuite = Suite[StoreReport]{
	Spec: Spec{
		Name:  "store",
		File:  "BENCH_store.json",
		Quick: "5 mechanisms x run lengths {12,24}; incremental tables {512,2048} rows",
		Full:  "5 mechanisms x run lengths {12,24,48}; incremental tables {512,2048,8192} rows",
	},
	Run: runStore,
	Gates: []Gate[StoreReport]{
		countGate("replay_cells", "storage", "mechanisms x run lengths",
			func(r *StoreReport) int { return len(r.Replay) },
			func(quick bool) int { return len(mechanisms) * len(storePlan(quick).runLengths) }),
		gate("replay_kinds", "storage", "all five mechanisms replayed", func(r *StoreReport) (bool, string) {
			return allMechanisms(r.Replay, func(c ReplayCell) string { return c.Kind })
		}),
		cellsGate("replay_positive", "storage", "0 < events_replayed <= segment_budget x 1024 in every replay cell",
			func(r *StoreReport) []ReplayCell { return r.Replay },
			func(c ReplayCell) string { return fmt.Sprintf("%s/%d replayed %d", c.Kind, c.Epochs, c.EventsReplayed) },
			func(c ReplayCell) bool { return c.EventsReplayed > 0 && c.EventsReplayed <= c.SegmentBudget*1024 }),
		gate("replay_flat", "storage", "events_replayed identical across run lengths for every mechanism", func(r *StoreReport) (bool, string) {
			return r.Checks.ReplayFlatPass, "replay grows with run length"
		}),
		gate("replay_within_budget", "storage", "0 < max_events_replayed <= replay_budget_events (snapshot interval x epoch size)", func(r *StoreReport) (bool, string) {
			c := r.Checks
			return c.ReplayWithinBudgetPass && c.MaxEventsReplayed <= c.ReplayBudgetEvents,
				fmt.Sprintf("max replay %d events, budget %d", c.MaxEventsReplayed, c.ReplayBudgetEvents)
		}),
		gate("segments_bounded", "storage", "0 < max_live_segments <= segment_budget", func(r *StoreReport) (bool, string) {
			c := r.Checks
			return c.SegmentsBoundedPass && c.MaxLiveSegments <= c.SegmentBudget,
				fmt.Sprintf("%d live segments, budget %d", c.MaxLiveSegments, c.SegmentBudget)
		}),
		gate("incremental_below_full", "engine", "0 < max_delta_over_base < 1", func(r *StoreReport) (bool, string) {
			return r.Checks.IncrementalBelowFullPass && r.Checks.MaxDeltaOverBase < 1, fmt.Sprintf("%.3f", r.Checks.MaxDeltaOverBase)
		}),
		cellsGate("delta_below_base", "engine", "avg_delta_bytes < avg_base_bytes at every table size",
			func(r *StoreReport) []IncCell { return r.Incremental },
			func(c IncCell) string { return fmt.Sprintf("rows=%d %.0f/%.0f B", c.Rows, c.AvgDelta, c.AvgBase) },
			func(c IncCell) bool { return c.AvgDelta < c.AvgBase }),
		gate("ratio_tracks_dirty_fraction", "engine", "delta_over_base strictly shrinking as the table grows", func(r *StoreReport) (bool, string) {
			return r.Checks.RatioTracksDirtyFractionPass, "ratio does not shrink as the dirty fraction falls"
		}),
	},
	Summary: summarizeStore,
}

func runStore(env *Env, rep *StoreReport) error {
	grid := storePlan(env.quick())
	rep.Note = "replay: each cell runs the seeded SL workload on the bounded " +
		"segment store (MaxSegments enforced by the device) for the given " +
		"run length plus a 2-epoch tail, crashes, and recovers; " +
		"events_replayed is the input volume reloaded above the snapshot " +
		"frontier. Bounded replay means events_replayed and live_segments " +
		"are flat across run lengths — replay cost is set by the snapshot " +
		"interval and the segment budget, never by history length. " +
		"incremental: delta-over-base is the durable byte ratio of delta " +
		"checkpoints to full base snapshots as the table (and so the " +
		"clean fraction) grows; the gate is ratio < 1 everywhere, " +
		"shrinking with the dirty fraction."

	// --- Bounded replay across run lengths -------------------------------
	ck := &rep.Checks
	ck.ReplayBudgetEvents = snapshotEvery * storeEpochSize
	ck.SegmentBudget = storeSegBudget
	ck.ReplayFlatPass = true
	for _, kind := range mechanisms {
		first := -1
		for _, n := range grid.runLengths {
			cell, err := replayCell(kind, n, storeEpochSize, storeSegBytes, storeSegBudget, storeSeed)
			if err != nil {
				return fmt.Errorf("%v epochs=%d: %w", kind, n, err)
			}
			rep.Replay = append(rep.Replay, *cell)
			if first < 0 {
				first = cell.EventsReplayed
			}
			if cell.EventsReplayed != first {
				ck.ReplayFlatPass = false
			}
			ck.MaxEventsReplayed = max(ck.MaxEventsReplayed, cell.EventsReplayed)
			ck.MaxLiveSegments = max(ck.MaxLiveSegments, cell.LiveSegments)
			env.logf("%-4s epochs=%2d  replayed %3d events  snap=%2d last=%2d  live=%2d released=%2d\n",
				cell.Kind, n, cell.EventsReplayed, cell.SnapshotEpoch, cell.LastEpoch,
				cell.LiveSegments, cell.ReleasedSegments)
		}
	}
	ck.ReplayWithinBudgetPass = ck.MaxEventsReplayed <= ck.ReplayBudgetEvents && ck.MaxEventsReplayed > 0
	ck.SegmentsBoundedPass = ck.MaxLiveSegments <= ck.SegmentBudget && ck.MaxLiveSegments > 0

	// --- Incremental checkpoint bytes vs dirty fraction ------------------
	ck.RatioTracksDirtyFractionPass = true
	prevRatio := 0.0
	for i, rows := range grid.incRows {
		cell, err := incrementalCell(rows, storeEpochSize, storeSeed)
		if err != nil {
			return fmt.Errorf("incremental rows=%d: %w", rows, err)
		}
		rep.Incremental = append(rep.Incremental, *cell)
		ck.MaxDeltaOverBase = max(ck.MaxDeltaOverBase, cell.Ratio)
		if i > 0 && cell.Ratio >= prevRatio {
			ck.RatioTracksDirtyFractionPass = false
		}
		prevRatio = cell.Ratio
		env.logf("inc rows=%5d  bases=%d deltas=%d  avg base %7.0f B  avg delta %7.0f B  ratio %.3f\n",
			rows, cell.BaseCount, cell.DeltaCount, cell.AvgBase, cell.AvgDelta, cell.Ratio)
	}
	ck.IncrementalBelowFullPass = ck.MaxDeltaOverBase > 0 && ck.MaxDeltaOverBase < 1
	return nil
}

// summarizeStore keeps the bounded-log headlines: the recorded verdicts
// (replay flat and within the segment budget, incremental checkpoints below
// full), the worst replay volume and segment high-water mark, and the
// delta/base byte ratio per table size — the curve a trend chart plots.
func summarizeStore(r *StoreReport) map[string]any {
	c := r.Checks
	out := map[string]any{
		"replay_cells":                     len(r.Replay),
		"incremental_cells":                len(r.Incremental),
		"replay_flat_pass":                 c.ReplayFlatPass,
		"replay_within_budget_pass":        c.ReplayWithinBudgetPass,
		"segments_bounded_pass":            c.SegmentsBoundedPass,
		"incremental_below_full_pass":      c.IncrementalBelowFullPass,
		"ratio_tracks_dirty_fraction_pass": c.RatioTracksDirtyFractionPass,
		"max_events_replayed":              c.MaxEventsReplayed,
		"replay_budget_events":             c.ReplayBudgetEvents,
		"max_live_segments":                c.MaxLiveSegments,
		"segment_budget":                   c.SegmentBudget,
		"max_delta_over_base":              c.MaxDeltaOverBase,
	}
	for _, cell := range r.Incremental {
		out[fmt.Sprintf("delta_over_base_rows_%d", cell.Rows)] = cell.Ratio
	}
	return out
}

func slGen(seed int64, rows uint32) workload.Generator {
	p := workload.DefaultSLParams()
	p.Seed, p.Rows = seed, rows
	return workload.NewSL(p)
}

// replayCell runs one mechanism for n epochs plus the tail on the bounded
// segment store, crashes, recovers, and measures the replay volume and the
// live-segment high-water mark.
func replayCell(kind ftapi.Kind, n, epochSize, segBytes, segBudget int, seed int64) (*ReplayCell, error) {
	seg := storage.NewSegStore(storage.SegConfig{SegmentBytes: segBytes, MaxSegments: segBudget})
	gen := slGen(seed, 512)
	shape := types.RunShape{Workers: 2, CommitEvery: commitEvery, SnapshotEvery: snapshotEvery}
	bytes := metrics.NewBytes()
	e, err := engine.New(engine.Config{
		App: gen.App(), Device: seg, RunShape: shape, Bytes: bytes,
		Mechanism: ft.New(kind, seg, bytes, msr.Default()),
	})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	total := 0
	for i := 0; i < n+tailEpochs; i++ {
		batch := workload.Batch(gen, epochSize)
		total += len(batch)
		if err := e.ProcessEpoch(batch); err != nil {
			return nil, err
		}
	}
	live := 0
	for _, log := range []string{storage.LogInput, storage.LogFT, storage.LogCkpt} {
		if s := seg.Segments(log); s > live {
			live = s
		}
	}
	released := seg.Released(storage.LogInput) + seg.Released(storage.LogFT) + seg.Released(storage.LogCkpt)
	e.Crash()

	b2 := metrics.NewBytes()
	_, report, err := engine.Recover(engine.Config{
		App: gen.App(), Device: seg, RunShape: shape, Bytes: b2,
		Mechanism: ft.New(kind, seg, b2, msr.Default()),
	})
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	return &ReplayCell{
		Kind:             kind.String(),
		Epochs:           n + tailEpochs,
		Events:           total,
		EventsReplayed:   report.EventsReplayed,
		SnapshotEpoch:    report.SnapshotEpoch,
		LastEpoch:        report.LastEpoch,
		LiveSegments:     live,
		ReleasedSegments: released,
		SegmentBudget:    segBudget,
	}, nil
}

// incrementalCell runs the WAL mechanism with incremental checkpoints
// (snapshots every 2 epochs, a full base every 4th snapshot) over tables of
// the given size and reports the durable byte ratio of deltas to bases.
func incrementalCell(rows uint32, epochSize int, seed int64) (*IncCell, error) {
	const (
		snapEvery = 2
		snapBase  = 4
		epochs    = 16
	)
	dev := storage.NewSegStore(storage.SegConfig{SegmentBytes: 4096})
	gen := slGen(seed, rows)
	bytes := metrics.NewBytes()
	e, err := engine.New(engine.Config{
		App: gen.App(), Device: dev, Bytes: bytes,
		Mechanism: ft.New(ftapi.WAL, dev, bytes, msr.Default()),
		RunShape:  types.RunShape{Workers: 2, CommitEvery: 2, SnapshotEvery: snapEvery, SnapshotBase: snapBase},
	})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	for i := 0; i < epochs; i++ {
		if err := e.ProcessEpoch(workload.Batch(gen, epochSize)); err != nil {
			return nil, err
		}
	}
	// The device's byte counters accumulate every write: total base bytes
	// land under the snapshot blob, total delta bytes under the checkpoint
	// log. The marker schedule fixes the counts: snapshots at every
	// snapEvery epochs, a base when the snapshot ordinal divides snapBase.
	written := dev.BytesWritten()
	snapshots := epochs / snapEvery
	bases := 0
	for ord := 1; ord <= snapshots; ord++ {
		if ord%snapBase == 0 {
			bases++
		}
	}
	deltas := snapshots - bases
	if bases == 0 || deltas == 0 {
		return nil, fmt.Errorf("degenerate schedule: %d bases, %d deltas", bases, deltas)
	}
	avgBase := float64(written[storage.BlobSnapshot]) / float64(bases)
	avgDelta := float64(written[storage.LogCkpt]) / float64(deltas)
	return &IncCell{
		Rows:       rows,
		EpochSize:  epochSize,
		BaseCount:  bases,
		DeltaCount: deltas,
		AvgBase:    avgBase,
		AvgDelta:   avgDelta,
		Ratio:      avgDelta / avgBase,
	}, nil
}
