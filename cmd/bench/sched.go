package main

import (
	"fmt"
	"testing"

	"morphstreamr/internal/adaptive"
	"morphstreamr/internal/codec"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/schedbench"
	"morphstreamr/internal/workload"
)

// SchedEntry is one measured cell of the grid.
type SchedEntry struct {
	Workload       string  `json:"workload"`
	Workers        int     `json:"workers"`
	Iterations     int     `json:"iterations"`
	NsPerEpoch     float64 `json:"ns_per_epoch"`
	NsPerOp        float64 `json:"ns_per_op"`
	OpsPerSec      float64 `json:"ops_per_sec"`
	AllocsPerEpoch int64   `json:"allocs_per_epoch"`
	BytesPerEpoch  int64   `json:"bytes_per_epoch"`
}

// AdaptiveEntry is one measured trajectory run of the adaptive section:
// a fresh multi-epoch stream executed end to end by one strategy mode —
// the pool pinned at one worker count, or the adaptive controller.
type AdaptiveEntry struct {
	Trajectory string `json:"trajectory"`
	// Mode is "static-wN" (AdaptiveForce{steal, N}) or "adaptive".
	Mode      string  `json:"mode"`
	Epochs    int     `json:"epochs"`
	NsTotal   float64 `json:"ns_total"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// Morphs counts controller decisions (adaptive mode only).
	Morphs int `json:"morphs,omitempty"`
}

// AdaptiveSummary ratios the adaptive controller against the best static
// worker count on one trajectory. The committed gates: on steady
// trajectories the ratio must stay >= 0.97 (adaptivity is nearly free when
// there is nothing to adapt to), and on the phase-shifting trajectory it
// must reach >= 1.15 (adaptivity pays when no static choice is right).
type AdaptiveSummary struct {
	Trajectory string `json:"trajectory"`
	BestStatic string `json:"best_static"`
	// AdaptiveOverBest is adaptive ops/s over best-static ops/s.
	AdaptiveOverBest float64 `json:"adaptive_over_best_static"`
}

// AllocEntry is one measured cell of the allocation section: an encode
// hot path run either "fresh" (allocate the payload per call, the
// pre-arena behaviour) or "arena" (encode into a pooled buffer, the seal
// path's behaviour since the arena pass).
type AllocEntry struct {
	Path        string `json:"path"`
	Mode        string `json:"mode"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

// AllocSummary is the committed record of the arena pass on one path:
// BytesReduction = 1 - arena/fresh allocated bytes per op, gated >= 0.20.
type AllocSummary struct {
	Path           string  `json:"path"`
	BytesReduction float64 `json:"bytes_reduction"`
}

// BaselineCell compares one steal cell against the same cell of a prior
// report — the observability layer's hot-path overhead record: with
// tracing off, after/before must stay within noise of 1.0.
type BaselineCell struct {
	Workload string  `json:"workload"`
	Workers  int     `json:"workers"`
	NsBefore float64 `json:"ns_per_epoch_before"`
	NsAfter  float64 `json:"ns_per_epoch_after"`
	// Ratio is after/before; >1 means this run is slower than the baseline.
	Ratio float64 `json:"ratio"`
}

// Baseline is the comparison section written when -baseline is given.
type Baseline struct {
	Path string `json:"path"`
	// MaxRatio is the worst (largest) after/before ratio across cells.
	MaxRatio float64        `json:"max_ratio"`
	Cells    []BaselineCell `json:"cells"`
}

// SchedReport is the file layout of BENCH_scheduler.json.
type SchedReport struct {
	Host
	EpochEvents     int               `json:"epoch_events"`
	Note            string            `json:"note"`
	Entries         []SchedEntry      `json:"entries"`
	Adaptive        []AdaptiveEntry   `json:"adaptive,omitempty"`
	AdaptiveSummary []AdaptiveSummary `json:"adaptive_summary,omitempty"`
	Alloc           []AllocEntry      `json:"alloc,omitempty"`
	AllocSummary    []AllocSummary    `json:"alloc_summary,omitempty"`
	Baseline        *Baseline         `json:"baseline,omitempty"`
}

// measureSched benchmarks one grid cell, keeping the fastest of repeat samples:
// the host is shared, so the minimum is the least-perturbed estimate of
// the scheduler's actual cost (allocation stats are deterministic and
// identical across samples). With a non-nil observer each run additionally
// emits an execute span and scheduler counters — that cost is part of what
// the sample then measures, which is the point of benchmarking with -trace.
func measureSched(wl schedbench.Workload, workers, repeat int, o *obs.Observer, stats *obs.SchedStats) SchedEntry {
	ep := schedbench.Prepare(wl)
	numOps := ep.G.NumOps
	var res testing.BenchmarkResult
	best := 0.0
	for s := 0; s < repeat; s++ {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := schedbench.RunObserved(ep, workers, o, stats); err != nil {
					b.Fatal(err)
				}
			}
		})
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if s == 0 || ns < best {
			best, res = ns, r
		}
	}
	nsPerEpoch := best
	return SchedEntry{
		Workload:       wl.Name,
		Workers:        workers,
		Iterations:     res.N,
		NsPerEpoch:     nsPerEpoch,
		NsPerOp:        nsPerEpoch / float64(numOps),
		OpsPerSec:      float64(numOps) * 1e9 / nsPerEpoch,
		AllocsPerEpoch: res.AllocsPerOp(),
		BytesPerEpoch:  res.AllocedBytesPerOp(),
	}
}

// measureTrajectory runs one trajectory/mode cell, keeping the fastest of
// repeat samples (same minimum-as-estimate rationale as measure).
func measureTrajectory(tr schedbench.Trajectory, mode string, repeat int,
	run func() (schedbench.TrajectoryResult, error)) (AdaptiveEntry, error) {
	var best schedbench.TrajectoryResult
	for s := 0; s < repeat; s++ {
		r, err := run()
		if err != nil {
			return AdaptiveEntry{}, err
		}
		if s == 0 || r.Wall < best.Wall {
			best = r
		}
	}
	ns := float64(best.Wall.Nanoseconds())
	return AdaptiveEntry{
		Trajectory: tr.Name,
		Mode:       mode,
		Epochs:     tr.Epochs,
		NsTotal:    ns,
		OpsPerSec:  float64(best.Ops) * 1e9 / ns,
		Morphs:     best.Morphs,
	}, nil
}

// measureAlloc benchmarks one encode-path mode; bytes and allocs are the
// quantities of record (they are deterministic), the wall time is not kept.
func measureAlloc(path, mode string, fn func()) AllocEntry {
	fn() // warm the buffer pool so the arena numbers are steady-state
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	return AllocEntry{
		Path:        path,
		Mode:        mode,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// allocProbes builds the encode hot-path fresh/arena pairs from one
// epoch-sized event batch.
func allocProbes() []struct {
	Path         string
	Fresh, Arena func()
} {
	events := workload.Batch(workload.NewGS(workload.DefaultGSParams()), schedbench.EpochEvents)
	recs := make([]codec.WALRecord, len(events))
	for i, ev := range events {
		recs[i] = codec.WALRecord{Event: ev}
	}
	return []struct {
		Path         string
		Fresh, Arena func()
	}{
		{
			Path:  "codec.EncodeEvents",
			Fresh: func() { codec.EncodeEvents(events) },
			Arena: func() {
				w := codec.GetBuffer()
				codec.EncodeEventsInto(w, events)
				codec.PutBuffer(w)
			},
		},
		{
			Path:  "codec.EncodeWAL",
			Fresh: func() { codec.EncodeWAL(recs) },
			Arena: func() {
				w := codec.GetBuffer()
				codec.EncodeWALInto(w, recs)
				codec.PutBuffer(w)
			},
		},
	}
}

// compareBaseline loads a prior report and ratios every current cell
// against its counterpart there (cells present in only one report are
// skipped, so grid changes do not break comparison).
func compareBaseline(path string, entries []SchedEntry) (*Baseline, error) {
	prior, err := load[SchedReport](path)
	if err != nil {
		return nil, err
	}
	before := map[string]float64{}
	for _, e := range prior.Entries {
		before[fmt.Sprintf("%s/%d", e.Workload, e.Workers)] = e.NsPerEpoch
	}
	b := &Baseline{Path: path}
	for _, e := range entries {
		prev, ok := before[fmt.Sprintf("%s/%d", e.Workload, e.Workers)]
		if !ok || prev <= 0 {
			continue
		}
		cell := BaselineCell{
			Workload: e.Workload,
			Workers:  e.Workers,
			NsBefore: prev,
			NsAfter:  e.NsPerEpoch,
			Ratio:    e.NsPerEpoch / prev,
		}
		b.Cells = append(b.Cells, cell)
		if cell.Ratio > b.MaxRatio {
			b.MaxRatio = cell.Ratio
		}
	}
	return b, nil
}

// schedGrid is the scheduler suite's grid at one size.
type schedGrid struct {
	workloads    []schedbench.Workload
	workers      []int
	repeat       int
	trajectories []schedbench.Trajectory
}

func schedPlan(quick bool) schedGrid {
	g := schedGrid{
		workloads:    schedbench.Workloads(),
		workers:      schedbench.Workers(),
		repeat:       3,
		trajectories: schedbench.Trajectories(),
	}
	if quick {
		g.workloads, g.workers, g.repeat = g.workloads[:1], []int{1, 4}, 1
		// The smoke grid keeps the trajectory that actually exercises morphing.
		for _, tr := range g.trajectories {
			if tr.Name == "GS-phased" {
				g.trajectories = []schedbench.Trajectory{tr}
				break
			}
		}
	}
	return g
}

var schedSuite = Suite[SchedReport]{
	Spec: Spec{
		Name:   "sched",
		File:   "BENCH_scheduler.json",
		Quick:  "1 workload x workers {1,4}, 1 sample; GS-phased trajectory; 2 alloc probes",
		Full:   "4 workloads x workers {1,2,4,8}, best of 3; 3 trajectories; 2 alloc probes",
		Traces: []Trace{{File: "sched_trace.json"}},
	},
	Run: runSched,
	Gates: []Gate[SchedReport]{
		countGate("adaptive_cells", "adaptive", "trajectories x (static worker counts + adaptive)",
			func(r *SchedReport) int { return len(r.Adaptive) },
			func(quick bool) int { g := schedPlan(quick); return len(g.trajectories) * (len(g.workers) + 1) }),
		cellsGate("adaptive_positive", "adaptive", "ns_total > 0 and ops_per_sec > 0 in every trajectory run",
			adaptiveRuns, adaptiveLabel, func(e AdaptiveEntry) bool { return e.NsTotal > 0 && e.OpsPerSec > 0 }),
		countGate("adaptive_runs", "adaptive", "one adaptive-mode run per trajectory",
			func(r *SchedReport) int { return len(controllerRuns(r)) },
			func(quick bool) int { return len(schedPlan(quick).trajectories) }),
		cellsGate("adaptive_morphs", "adaptive", ">= 1 morph in every adaptive-mode run",
			controllerRuns, adaptiveLabel, func(e AdaptiveEntry) bool { return e.Morphs >= 1 }),
		gate("adaptive_phased", "adaptive", "GS-phased adaptive_over_best_static >= 1.05", func(r *SchedReport) (bool, string) {
			for _, s := range r.AdaptiveSummary {
				if s.Trajectory == "GS-phased" {
					return s.AdaptiveOverBest >= 1.05, fmt.Sprintf("x%.3f (best static %s)", s.AdaptiveOverBest, s.BestStatic)
				}
			}
			return false, "no GS-phased summary"
		}),
		countGate("alloc_cells", "codec", "a fresh and an arena cell per encode probe",
			func(r *SchedReport) int { return len(r.Alloc) }, func(bool) int { return 2 * len(allocProbes()) }),
		countGate("alloc_summaries", "codec", "one bytes_reduction summary per encode probe",
			func(r *SchedReport) int { return len(r.AllocSummary) }, func(bool) int { return len(allocProbes()) }),
		cellsGate("alloc_reduction", "codec", "bytes_reduction >= 0.20 on every encode probe",
			func(r *SchedReport) []AllocSummary { return r.AllocSummary },
			func(s AllocSummary) string { return fmt.Sprintf("%s %.2f", s.Path, s.BytesReduction) },
			func(s AllocSummary) bool { return s.BytesReduction >= 0.20 }),
	},
	Summary: summarizeSched,
}

func adaptiveRuns(r *SchedReport) []AdaptiveEntry { return r.Adaptive }
func adaptiveLabel(e AdaptiveEntry) string        { return e.Trajectory + "/" + e.Mode }

// controllerRuns are the trajectory runs the adaptive controller drove.
func controllerRuns(r *SchedReport) []AdaptiveEntry {
	var runs []AdaptiveEntry
	for _, e := range r.Adaptive {
		if e.Mode == "adaptive" {
			runs = append(runs, e)
		}
	}
	return runs
}

func runSched(env *Env, rep *SchedReport) error {
	var stats *obs.SchedStats
	if env.Obs != nil {
		stats = &obs.SchedStats{}
		stats.Register(env.Obs.Registry())
	}
	rep.EpochEvents = schedbench.EpochEvents
	rep.Note = "One epoch graph per cell, rebuilt never: each iteration " +
		"ResetExec()s the graph and reruns the scheduler, so numbers " +
		"isolate scheduling cost from graph construction; every cell is " +
		"scheduler.Run, the work-stealing pool at a fixed worker count. " +
		"The adaptive section runs whole multi-epoch trajectories (fresh " +
		"graphs per epoch) through the engine's executor and ratios the " +
		"adaptive controller against the best pinned worker count " +
		"(static-wN is AdaptiveForce{steal, N}); the alloc section " +
		"records the arena pass's fresh vs pooled-buffer encode cost. " +
		"The baseline section, when present, ratios cells against a " +
		"prior report — the observability layer's tracing-off overhead " +
		"record."

	grid := schedPlan(env.quick())
	for _, wl := range grid.workloads {
		for _, w := range grid.workers {
			e := measureSched(wl, w, grid.repeat, env.Obs, stats)
			rep.Entries = append(rep.Entries, e)
			env.logf("%-12s w%d: %.0f ns/epoch, %.2f ns/op, %d B/op, %d allocs/op\n",
				wl.Name, w, e.NsPerEpoch, e.NsPerOp, e.BytesPerEpoch, e.AllocsPerEpoch)
		}
	}

	// Adaptive section: whole trajectories, pinned pool vs controller.
	maxWorkers := grid.workers[len(grid.workers)-1]
	for _, tr := range grid.trajectories {
		bestStatic := AdaptiveEntry{}
		for _, w := range grid.workers {
			pin := &adaptive.Strategy{Impl: adaptive.ImplSteal, Workers: w}
			e, err := measureTrajectory(tr, fmt.Sprintf("static-w%d", w), grid.repeat,
				func() (schedbench.TrajectoryResult, error) { return schedbench.RunTrajectory(tr, maxWorkers, pin) })
			if err != nil {
				return fmt.Errorf("adaptive: %w", err)
			}
			rep.Adaptive = append(rep.Adaptive, e)
			if e.OpsPerSec > bestStatic.OpsPerSec {
				bestStatic = e
			}
			env.logf("%-18s %-10s: %8.2f ms, %.2f Mops/s\n",
				tr.Name, e.Mode, e.NsTotal/1e6, e.OpsPerSec/1e6)
		}
		e, err := measureTrajectory(tr, "adaptive", grid.repeat,
			func() (schedbench.TrajectoryResult, error) { return schedbench.RunTrajectory(tr, maxWorkers, nil) })
		if err != nil {
			return fmt.Errorf("adaptive: %w", err)
		}
		rep.Adaptive = append(rep.Adaptive, e)
		sum := AdaptiveSummary{
			Trajectory:       tr.Name,
			BestStatic:       bestStatic.Mode,
			AdaptiveOverBest: e.OpsPerSec / bestStatic.OpsPerSec,
		}
		rep.AdaptiveSummary = append(rep.AdaptiveSummary, sum)
		env.logf("%-18s %-10s: %8.2f ms, %.2f Mops/s, %d morphs (x%.2f of best static %s)\n",
			tr.Name, e.Mode, e.NsTotal/1e6, e.OpsPerSec/1e6, e.Morphs, sum.AdaptiveOverBest, sum.BestStatic)
	}

	// Allocation section: the arena pass's before/after on encode paths.
	for _, p := range allocProbes() {
		fresh := measureAlloc(p.Path, "fresh", p.Fresh)
		arena := measureAlloc(p.Path, "arena", p.Arena)
		rep.Alloc = append(rep.Alloc, fresh, arena)
		sum := AllocSummary{Path: p.Path}
		if fresh.BytesPerOp > 0 {
			sum.BytesReduction = 1 - float64(arena.BytesPerOp)/float64(fresh.BytesPerOp)
		}
		rep.AllocSummary = append(rep.AllocSummary, sum)
		env.logf("%-20s fresh %d B/op %d allocs/op -> arena %d B/op %d allocs/op (-%.0f%% bytes)\n",
			p.Path, fresh.BytesPerOp, fresh.AllocsPerOp, arena.BytesPerOp, arena.AllocsPerOp, sum.BytesReduction*100)
	}

	if env.Baseline != "" {
		b, err := compareBaseline(env.Baseline, rep.Entries)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		rep.Baseline = b
		for _, c := range b.Cells {
			env.logf("baseline %-12s w%d: %.0f -> %.0f ns/epoch (x%.3f)\n",
				c.Workload, c.Workers, c.NsBefore, c.NsAfter, c.Ratio)
		}
		if b.MaxRatio > 1.02 {
			env.logf("sched: WARNING: worst cell is x%.3f of baseline (>1.02 budget)\n", b.MaxRatio)
		}
	}
	return env.writeSpans("sched_trace.json")
}

// summarizeSched keeps the headline throughput (the best ops/sec over all
// cells), the controller-vs-best-static ratio per trajectory, and the arena
// pass's worst bytes reduction.
func summarizeSched(r *SchedReport) map[string]any {
	best := 0.0
	for _, e := range r.Entries {
		best = max(best, e.OpsPerSec)
	}
	out := map[string]any{"entries": len(r.Entries), "max_ops_per_sec_steal": best}
	for _, s := range r.AdaptiveSummary {
		out["adaptive_over_best_"+s.Trajectory] = s.AdaptiveOverBest
	}
	if len(r.AllocSummary) > 0 {
		worst := r.AllocSummary[0].BytesReduction
		for _, s := range r.AllocSummary[1:] {
			worst = min(worst, s.BytesReduction)
		}
		out["min_alloc_bytes_reduction"] = worst
	}
	return out
}
