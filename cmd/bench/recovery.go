package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"morphstreamr/internal/bench"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/fttest"
	"morphstreamr/internal/vtime"
	"morphstreamr/internal/workload"
)

// recoverySeed fixes the workload stream so every mechanism replays the
// same transactions and cells are comparable across runs.
const recoverySeed = 79

// PhaseCell summarises one recovery phase of a cell's profile.
type PhaseCell struct {
	Name         string  `json:"name"`
	Kind         string  `json:"kind"`
	MakespanUs   float64 `json:"makespan_us"`
	CritPathUs   float64 `json:"critical_path_us"`
	LowerBoundUs float64 `json:"lower_bound_us"`
	ActiveLanes  int     `json:"active_lanes"`
}

// StallCell is one aggregated (edge, blocker) stall cause.
type StallCell struct {
	Edge    string  `json:"edge"`
	Blocker string  `json:"blocker,omitempty"`
	TotalUs float64 `json:"total_us"`
	Count   int64   `json:"count"`
}

// RecoveryCell is one measured (mechanism, workers) grid point.
type RecoveryCell struct {
	Kind           string `json:"kind"`
	Workers        int    `json:"workers"`
	EventsReplayed int    `json:"events_replayed"`
	// TimelineUs is the virtual recovery length (sum of phase makespans);
	// CritPathUs/LowerBoundUs the summed per-phase bounds; CPRatio is
	// timeline over lower bound (1.0 = optimal schedule under the model).
	TimelineUs   float64 `json:"timeline_us"`
	CritPathUs   float64 `json:"critical_path_us"`
	LowerBoundUs float64 `json:"lower_bound_us"`
	CPRatio      float64 `json:"cp_ratio"`
	// StallShare is dependency-attributed stall time (TD/LD/PD, logged
	// deps, LSN vectors, serial phases) over total lane-time; DrainShare
	// is end-of-phase load imbalance. The aggregate decomposition follows
	// (summed across lanes, so exec+explore+abort+phase+stall ==
	// workers * timeline).
	StallShare float64 `json:"stall_share"`
	DrainShare float64 `json:"drain_share"`
	ExecUs     float64 `json:"exec_us"`
	ExploreUs  float64 `json:"explore_us"`
	AbortUs    float64 `json:"abort_us"`
	PhaseUs    float64 `json:"phase_us"`
	StallUs    float64 `json:"stall_us"`
	Spans      int     `json:"spans"`
	// BreakdownShares is the Figure 11 six-way recovery breakdown,
	// normalised (see metrics.RecoveryBreakdown.Shares).
	BreakdownShares map[string]float64 `json:"breakdown_shares"`
	Phases          []PhaseCell        `json:"phases"`
	TopStalls       []StallCell        `json:"top_stalls"`
}

// ProfilerCost records what turning the profiler ON costs one mechanism:
// minimum recovery wall over the repeats with the profiler off and on.
// This is the price of profiling, not an invariant: off and on run the
// same simulator loop (vtime tests pin identical virtual clocks), so there
// is no separate profiling-off path to budget. UnpricedUs is the same
// minimum unpriced, as a heal runs: off − unpriced is what pricing costs.
type ProfilerCost struct {
	Kind       string  `json:"kind"`
	OffUs      float64 `json:"recovery_wall_off_us"`
	OnUs       float64 `json:"recovery_wall_on_us"`
	UnpricedUs float64 `json:"recovery_wall_unpriced_us"`
	DeltaPct   float64 `json:"delta_pct"`
}

// RecoveryChecks is the invariant block: the structural verdicts the run
// recorded, which the suite's gates read.
type RecoveryChecks struct {
	MainWorkers int `json:"main_workers"`
	// DecompositionExact: every lane's exec+explore+abort+phase+stall
	// equals the cell's timeline exactly, for every cell.
	DecompositionExact bool `json:"decomposition_exact"`
	// WalSingleLane: WAL's redo phase shows exactly one active lane at
	// every worker count.
	WalSingleLane bool `json:"wal_single_lane"`
	// MsrLowestStall: at the main worker count, MSR's stall share is
	// strictly the lowest of the five mechanisms.
	MsrLowestStall bool `json:"msr_lowest_stall"`
	// CPBound: timeline >= lower bound for every cell, and phase makespan
	// >= phase lower bound for every phase of every cell.
	CPBound bool `json:"cp_bound"`
	// ProfilerOnCost is informational: the recovery-wall price of turning
	// the profiler ON, per mechanism.
	ProfilerOnCost []ProfilerCost `json:"profiler_on_cost"`
}

// RecoveryReport is the file layout of BENCH_recovery.json.
type RecoveryReport struct {
	Host
	Quick      bool           `json:"quick"`
	Workers    int            `json:"workers"`
	BatchSize  int            `json:"batch_size"`
	PostEpochs int            `json:"post_epochs"`
	Note       string         `json:"note"`
	Cells      []RecoveryCell `json:"cells"`
	Checks     RecoveryChecks `json:"checks"`
}

// scenario builds one profiled run of the crash-recover protocol.
func scenario(kind ftapi.Kind, sc bench.Scale, w int, prof *vtime.Profiler) bench.Scenario {
	sc.Workers = w
	return bench.Scenario{
		Gen:   func() workload.Generator { return fttest.SLGen(recoverySeed) },
		Kind:  kind,
		Scale: sc,
		Prof:  prof,
	}
}

// measureRecoveryCell runs one grid cell and converts its profile.
func measureRecoveryCell(kind ftapi.Kind, sc bench.Scale, w int) (RecoveryCell, *vtime.Profiler, *vtime.Profile, error) {
	prof := vtime.NewProfiler(w)
	run, err := bench.Execute(scenario(kind, sc, w, prof))
	if err != nil {
		return RecoveryCell{}, nil, nil, fmt.Errorf("%v W=%d: %w", kind, w, err)
	}
	p := run.Recovery.Profile
	if p == nil {
		return RecoveryCell{}, nil, nil, fmt.Errorf("%v W=%d: no profile recorded", kind, w)
	}
	c := RecoveryCell{
		Kind:            kind.String(),
		Workers:         w,
		EventsReplayed:  run.Recovery.EventsReplayed,
		TimelineUs:      us(p.Timeline),
		CritPathUs:      us(p.CritPath),
		LowerBoundUs:    us(p.LowerBound),
		CPRatio:         p.CPRatio,
		StallShare:      p.StallShare(),
		DrainShare:      p.DrainShare(),
		Spans:           p.Spans,
		BreakdownShares: run.Recovery.Breakdown.Shares(),
	}
	for _, l := range p.Lanes {
		c.ExecUs += us(l.Exec)
		c.ExploreUs += us(l.Explore)
		c.AbortUs += us(l.Abort)
		c.PhaseUs += us(l.PhaseWork)
		c.StallUs += us(l.Stall)
	}
	for _, ph := range p.Phases {
		c.Phases = append(c.Phases, PhaseCell{
			Name: ph.Name, Kind: ph.Kind,
			MakespanUs: us(ph.Makespan), CritPathUs: us(ph.CritPath),
			LowerBoundUs: us(ph.LowerBound), ActiveLanes: ph.ActiveLanes,
		})
	}
	for i, s := range p.TopStalls {
		if i == 3 {
			break
		}
		c.TopStalls = append(c.TopStalls, StallCell{
			Edge: s.Edge, Blocker: s.Blocker, TotalUs: us(s.Total), Count: s.Count,
		})
	}
	return c, prof, p, nil
}

// minWalls runs the cell repeat times with the profiler off, on, and with
// no pricing at all, interleaved so host drift lands on each alike, and
// returns each one's minimum recovery wall — the least-perturbed estimate
// on a shared host.
func minWalls(kind ftapi.Kind, sc bench.Scale, w, repeat int) ([3]time.Duration, error) {
	var best [3]time.Duration // off, on, unpriced
	for i := 0; i < repeat; i++ {
		for m := range best {
			var prof *vtime.Profiler
			if m == 1 {
				prof = vtime.NewProfiler(w)
			}
			s := scenario(kind, sc, w, prof)
			s.Unpriced = m == 2
			run, err := bench.Execute(s)
			if err != nil {
				return best, err
			}
			if i == 0 || run.Recovery.Wall < best[m] {
				best[m] = run.Recovery.Wall
			}
		}
	}
	return best, nil
}

// benchScale is the bench scale the recovery and figures suites run at one
// size.
func benchScale(quick bool) bench.Scale {
	if quick {
		return bench.QuickScale()
	}
	return bench.DefaultScale()
}

// recoverySweep is the worker counts every mechanism is profiled at: 1, 4,
// 8 and the scale's main worker count.
func recoverySweep(sc bench.Scale) []int {
	sweep := []int{1, 4, 8}
	if !slices.Contains(sweep, sc.Workers) {
		sweep = append(sweep, sc.Workers)
		sort.Ints(sweep)
	}
	return sweep
}

// recoveryRepeat is the samples per profiler-on cost measurement; the
// minimum wall is kept.
const recoveryRepeat = 5

var recoverySuite = Suite[RecoveryReport]{
	Spec: Spec{
		Name:   "recovery",
		File:   "BENCH_recovery.json",
		Quick:  "5 mechanisms x W {1,4,8} at bench.QuickScale (1024-event batches, main W=4), fixed costs",
		Full:   "5 mechanisms x W {1,4,8} at bench.DefaultScale (4096-event batches, main W=8), fixed costs",
		Traces: recoveryTraces(),
	},
	Run: runRecovery,
	Gates: []Gate[RecoveryReport]{
		countGate("cells", "vtime", "mechanisms x swept worker counts",
			func(r *RecoveryReport) int { return len(r.Cells) },
			func(quick bool) int { return len(mechanisms) * len(recoverySweep(benchScale(quick))) }),
		gate("kinds", "vtime", "all five mechanisms profiled", func(r *RecoveryReport) (bool, string) {
			return allMechanisms(r.Cells, func(c RecoveryCell) string { return c.Kind })
		}),
		recoveryCellGate("timeline_ge_lower_bound", "timeline_us >= lower_bound_us in every cell",
			func(c RecoveryCell) bool { return c.TimelineUs >= c.LowerBoundUs }),
		recoveryCellGate("stall_share_range", "0 <= stall_share <= 1 in every cell",
			func(c RecoveryCell) bool { return c.StallShare >= 0 && c.StallShare <= 1 }),
		verdictGate("decomposition_exact", "vtime", "every lane's exec+explore+abort+phase+stall equal to the timeline, in every cell",
			func(c RecoveryChecks) bool { return c.DecompositionExact }),
		verdictGate("wal_single_lane", "ft/wal", "WAL's redo phase on exactly one active lane at every worker count",
			func(c RecoveryChecks) bool { return c.WalSingleLane }),
		verdictGate("msr_lowest_stall", "ft/msr", "MSR's stall share strictly the lowest of the five at the main worker count",
			func(c RecoveryChecks) bool { return c.MsrLowestStall }),
		verdictGate("cp_bound", "vtime", "makespan >= max(critical path, work/W) for every cell and every phase",
			func(c RecoveryChecks) bool { return c.CPBound }),
	},
	Summary: summarizeRecovery,
}

// recoveryTraces is one per-virtual-worker timeline per mechanism, taken
// at the main worker count.
func recoveryTraces() []Trace {
	var ts []Trace
	for _, k := range mechanisms {
		ts = append(ts, Trace{File: recoveryTraceFile(k)})
	}
	return ts
}

func recoveryTraceFile(k ftapi.Kind) string { return "recovery_trace_" + k.String() + ".json" }

func recoveryCellGate(name, want string, ok func(RecoveryCell) bool) Gate[RecoveryReport] {
	return cellsGate(name, "vtime", want, func(r *RecoveryReport) []RecoveryCell { return r.Cells },
		func(c RecoveryCell) string { return fmt.Sprintf("%s/W=%d", c.Kind, c.Workers) }, ok)
}

// verdictGate gates on a structural verdict the run recorded in checks;
// the run logs each violation where it finds it.
func verdictGate(name, layer, want string, verdict func(RecoveryChecks) bool) Gate[RecoveryReport] {
	return gate(name, layer, want, func(r *RecoveryReport) (bool, string) {
		return verdict(r.Checks), "checks." + name + " false"
	})
}

func runRecovery(env *Env, rep *RecoveryReport) error {
	scale := benchScale(env.quick())
	mainW := scale.Workers
	rep.Quick = env.quick()
	rep.Workers = mainW
	rep.BatchSize = scale.BatchSize
	rep.PostEpochs = scale.PostEpochs
	rep.Note = "Each cell profiles one crash-recovery replay (vtime.Profiler): " +
		"timeline_us is the virtual recovery length, critical_path_us the " +
		"longest dependency path under the cost model, lower_bound_us the " +
		"list-scheduling bound max(critical path, work/W), cp_ratio " +
		"timeline/lower bound. stall_share is dependency-attributed stall " +
		"time (TD/LD/PD, logged deps, LSN vectors, serial phases) over " +
		"total lane-time, itemised per edge in top_stalls; drain_share is " +
		"end-of-phase load imbalance. checks records the structural " +
		"invariants (exact lane decomposition, WAL's single-lane redo, " +
		"MSR's lowest stall share at the main worker count, makespan >= " +
		"lower bound) and, informationally, the recovery-wall price of " +
		"turning the profiler on and the wall of the same recovery unpriced."

	ck := RecoveryChecks{
		MainWorkers:        mainW,
		DecompositionExact: true,
		WalSingleLane:      true,
		CPBound:            true,
	}
	// Each violated invariant is logged where it is found; the gates read
	// the verdicts recorded in the report.
	stallAtMain := map[string]float64{}
	for _, kind := range mechanisms {
		for _, w := range recoverySweep(scale) {
			cell, prof, p, err := measureRecoveryCell(kind, scale, w)
			if err != nil {
				return err
			}
			rep.Cells = append(rep.Cells, cell)
			env.logf("%-5s W=%d: timeline %9.0f µs, cp-ratio %.3f, stall %5.1f%%, %d spans\n",
				cell.Kind, w, cell.TimelineUs, cell.CPRatio, 100*cell.StallShare, cell.Spans)

			if err := p.Consistent(); err != nil {
				ck.DecompositionExact = false
				env.logf("%v W=%d: %v\n", kind, w, err)
			}
			if kind == ftapi.WAL {
				redo := p.Phase("redo")
				if redo == nil || redo.ActiveLanes != 1 {
					ck.WalSingleLane = false
					env.logf("WAL W=%d: redo phase not single-lane\n", w)
				}
			}
			if p.Timeline < p.LowerBound {
				ck.CPBound = false
				env.logf("%v W=%d: timeline %v < lower bound %v\n", kind, w, p.Timeline, p.LowerBound)
			}
			for _, ph := range p.Phases {
				if ph.Makespan < ph.LowerBound {
					ck.CPBound = false
					env.logf("%v W=%d phase %s: makespan %v < lower bound %v\n",
						kind, w, ph.Name, ph.Makespan, ph.LowerBound)
				}
			}
			if w == mainW {
				stallAtMain[cell.Kind] = cell.StallShare
				if err := env.writeTrace(recoveryTraceFile(kind), prof.WriteChrome); err != nil {
					return err
				}
			}
		}
	}

	// MSR's restructuring exists to minimise stalls; at the main worker
	// count its stall share must be strictly the lowest. (At W=1 every
	// mechanism is stall-free, so the comparison is only meaningful with
	// real parallelism.)
	ck.MsrLowestStall = true
	for kind, share := range stallAtMain {
		if kind != ftapi.MSR.String() && share <= stallAtMain[ftapi.MSR.String()] {
			ck.MsrLowestStall = false
			env.logf("W=%d: %s stall share %.4f <= MSR %.4f\n", mainW, kind, share, stallAtMain[ftapi.MSR.String()])
		}
	}

	// Informational: what profiling costs when it is ON, and pricing at all.
	for _, kind := range mechanisms {
		walls, err := minWalls(kind, scale, mainW, recoveryRepeat)
		if err != nil {
			return err
		}
		off, on, unpriced := walls[0], walls[1], walls[2]
		delta := 100 * (float64(on) - float64(off)) / float64(off)
		ck.ProfilerOnCost = append(ck.ProfilerOnCost, ProfilerCost{
			Kind: kind.String(), OffUs: us(off), OnUs: us(on), UnpricedUs: us(unpriced), DeltaPct: delta,
		})
		env.logf("%-5s profiler-on cost: off %7.0f µs, on %7.0f µs (%+.2f%%), unpriced %7.0f µs (%.2f x off)\n",
			kind, us(off), us(on), delta, us(unpriced), float64(unpriced)/float64(off))
	}
	rep.Checks = ck
	return nil
}

// summarizeRecovery keeps, per mechanism at the report's main worker
// count, the virtual timeline, stall share, and cp ratio — the numbers a
// trend chart plots — plus the recorded verdicts.
func summarizeRecovery(r *RecoveryReport) map[string]any {
	c := r.Checks
	out := map[string]any{
		"cells":               len(r.Cells),
		"decomposition_exact": c.DecompositionExact,
		"wal_single_lane":     c.WalSingleLane,
		"msr_lowest_stall":    c.MsrLowestStall,
		"cp_bound":            c.CPBound,
	}
	for _, cell := range r.Cells {
		if cell.Workers != c.MainWorkers {
			continue
		}
		kind := strings.ToLower(cell.Kind)
		out[kind+"_timeline_us"] = cell.TimelineUs
		out[kind+"_stall_share"] = cell.StallShare
		out[kind+"_cp_ratio"] = cell.CPRatio
	}
	return out
}
