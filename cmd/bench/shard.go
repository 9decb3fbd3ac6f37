package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/vtime"
	"morphstreamr/internal/workload"
)

// fanouts are the shard counts both sections sweep.
var fanouts = []int{1, 2, 4, 8}

// ScalingEntry is one measured (workload variant, fan-out) ingest cell.
type ScalingEntry struct {
	// Workload names the variant: gs-local (partition-local, replication
	// off — the scaling configuration), gs-replicated (30% cross-partition
	// reads, frontier broadcast on — the replication-tax reference), or
	// gs-skewed (theta 1.0 hot shard — the imbalance reference).
	Workload   string `json:"workload"`
	Shards     int    `json:"shards"`
	LocalReads bool   `json:"local_reads"`
	Events     int    `json:"events"`
	// SimWallUs is Σ over epochs of (max per-shard wall + barrier wall):
	// the group ingest wall an N-core host would see. BarrierUs is the
	// barrier share of it.
	SimWallUs float64 `json:"sim_wall_us"`
	BarrierUs float64 `json:"barrier_us"`
	// ThroughputEps is Events / SimWall.
	ThroughputEps float64 `json:"throughput_eps"`
	// ScalingX is this cell's throughput over the same variant's 1-shard
	// throughput.
	ScalingX float64 `json:"scaling_x"`
}

// RecoveryEntry is one measured fan-out of the group recovery section.
type RecoveryEntry struct {
	Kind   string `json:"kind"`
	Shards int    `json:"shards"`
	// EventsReplayed sums the shards' replay volumes (replication events
	// included — they ride the same logs).
	EventsReplayed int    `json:"events_replayed"`
	TargetEpoch    uint64 `json:"target_epoch"`
	AlignedShards  int    `json:"aligned_shards"`
	// SerialSimUs is the summed per-shard simulated recovery wall (the
	// one-at-a-time baseline); ParallelSimUs the max (all shards at once);
	// SpeedupX their ratio — the headline number.
	SerialSimUs   float64 `json:"serial_sim_us"`
	ParallelSimUs float64 `json:"parallel_sim_us"`
	SpeedupX      float64 `json:"speedup_x"`
	// Balance is mean/max of the per-shard virtual recovery timelines (1.0
	// = perfectly balanced shards; the straggler bounds the group).
	Balance float64 `json:"balance"`
	// SerialWallUs and ParallelWallUs are the real host walls of the two
	// recovery runs (informational: this host's core count caps the real
	// parallel gain).
	SerialWallUs   float64 `json:"serial_wall_us"`
	ParallelWallUs float64 `json:"parallel_wall_us"`
}

// ShardChecks is the shard layer's headline numbers and the verdicts the
// run recorded for them.
type ShardChecks struct {
	// Scaling8x is gs-local's ScalingX at 8 shards; the gate is ≥ 0.8×8.
	Scaling8x     float64 `json:"scaling_8x"`
	Scaling8xPass bool    `json:"scaling_8x_pass"`
	// RecoverySpeedup4x is SpeedupX at 4 shards; the gate is ≥ 0.7×4.
	RecoverySpeedup4x     float64 `json:"recovery_speedup_4x"`
	RecoverySpeedup4xPass bool    `json:"recovery_speedup_4x_pass"`
}

// ShardReport is the file layout of BENCH_shard.json.
type ShardReport struct {
	Host
	Epochs    int             `json:"epochs"`
	EpochSize int             `json:"epoch_size"`
	Note      string          `json:"note"`
	Scaling   []ScalingEntry  `json:"scaling"`
	Recovery  []RecoveryEntry `json:"recovery"`
	Checks    ShardChecks     `json:"checks"`
}

// variant parameterizes one scaling workload.
type variant struct {
	name       string
	theta      float64
	mpr        float64
	localReads bool
}

var variants = []variant{
	{name: "gs-local", theta: 0.2, mpr: 0, localReads: true},
	{name: "gs-replicated", theta: 0.2, mpr: 0.3, localReads: false},
	{name: "gs-skewed", theta: 1.0, mpr: 0.3, localReads: false},
}

// gsParams builds the benchmark Grep&Sum shape: 4096 rows, the generator's
// data partitions matched to the shard fan-out so partition-locality lines
// up with shard ownership.
func gsParams(v variant, shards int) workload.GSParams {
	p := workload.DefaultGSParams()
	p.Seed, p.Rows = 61, 4096
	p.Theta, p.MultiPartitionRatio = v.theta, v.mpr
	p.Partitions = shards
	return p
}

// shape is the per-shard engine shape every cell runs: one worker (clean
// per-shard walls on any host), commit every 2 epochs, snapshot every 4.
func shape(shards int) types.GroupShape {
	return types.GroupShape{
		RunShape: types.RunShape{Workers: 1, CommitEvery: 2, SnapshotEvery: 4},
		Shards:   shards,
	}
}

// measureScaling runs one (variant, fan-out) cell `repeat` times with
// SerialEpochs. Per-shard walls are real time measured serially, so host
// preemption inflates individual samples with a heavy right tail — and a
// max over shards of noisy samples almost surely catches one preempted
// window. The estimator therefore takes each (epoch, shard)'s minimum
// across repeats first — the shard's least-interfered processing time,
// identical work every repeat — and only then the max over shards: the
// group wall an N-core host would see from the slowest shard.
func measureScaling(v variant, shards, epochs, epochSize, repeat int) (ScalingEntry, error) {
	e := ScalingEntry{Workload: v.name, Shards: shards, LocalReads: v.localReads, Events: epochs * epochSize}
	bestShard := make([][]time.Duration, epochs)
	for i := range bestShard {
		bestShard[i] = make([]time.Duration, shards)
	}
	bestBarrier := make([]time.Duration, epochs)
	for r := 0; r < repeat; r++ {
		gen := workload.NewGS(gsParams(v, shards))
		batches := make([][]types.Event, epochs)
		for i := range batches {
			batches[i] = workload.Batch(gen, epochSize)
		}
		g, err := shard.NewGroup(shard.Config{
			GroupShape:   shape(shards),
			App:          gen.App(),
			Kind:         ftapi.WAL,
			LocalReads:   v.localReads,
			SerialEpochs: true,
		})
		if err != nil {
			return e, err
		}
		runtime.GC() // park collector debt outside the timed epochs
		if err := g.Run(batches); err != nil {
			return e, fmt.Errorf("%s shards=%d: %w", v.name, shards, err)
		}
		for i, st := range g.EpochStats() {
			for s, w := range st.ShardWalls {
				if r == 0 || w < bestShard[i][s] {
					bestShard[i][s] = w
				}
			}
			if r == 0 || st.BarrierWall < bestBarrier[i] {
				bestBarrier[i] = st.BarrierWall
			}
		}
	}
	var sim, barrier time.Duration
	for i := range bestShard {
		var max time.Duration
		for _, w := range bestShard[i] {
			if w > max {
				max = w
			}
		}
		sim += max + bestBarrier[i]
		barrier += bestBarrier[i]
	}
	e.SimWallUs = us(sim)
	e.BarrierUs = us(barrier)
	if sim > 0 {
		e.ThroughputEps = float64(e.Events) / sim.Seconds()
	}
	return e, nil
}

// recoveryRun ingests the run, crashes the group, and recovers it with the
// given strategy, returning the report and the real recovery wall.
func recoveryRun(kind ftapi.Kind, shards, epochs, epochSize int, serial bool) (*shard.GroupReport, error) {
	gen := workload.NewGS(gsParams(variant{theta: 0.2, mpr: 0.3}, shards))
	batches := make([][]types.Event, epochs)
	for i := range batches {
		batches[i] = workload.Batch(gen, epochSize)
	}
	devs := make([]storage.Device, shards)
	for i := range devs {
		devs[i] = storage.NewMem()
	}
	cfg := shard.Config{
		GroupShape: shape(shards),
		App:        gen.App(),
		Kind:       kind,
		Devices:    devs,
		CoordDev:   storage.NewMem(),
	}
	g, err := shard.NewGroup(cfg)
	if err != nil {
		return nil, err
	}
	if err := g.Run(batches); err != nil {
		return nil, fmt.Errorf("shards=%d ingest: %w", shards, err)
	}
	g.Crash()
	profilers := make([]*vtime.Profiler, shards)
	for i := range profilers {
		profilers[i] = vtime.NewProfiler(1)
	}
	_, rep, err := shard.GroupRecover(shard.RecoverConfig{
		Config:    cfg,
		Source:    types.BatchSource(batches),
		Serial:    serial,
		Profilers: profilers,
	})
	if err != nil {
		return nil, fmt.Errorf("shards=%d recover: %w", shards, err)
	}
	return rep, nil
}

// measureRecovery runs the serial-baseline and parallel recoveries for one
// fan-out (one fresh ingest each — a re-feed appends to the devices, so
// recoveries do not share media) and combines them into the entry. The
// speedup is SimWall-based and identical in both runs; the two real walls
// are informational.
func measureRecovery(kind ftapi.Kind, shards, epochs, epochSize int) (RecoveryEntry, error) {
	e := RecoveryEntry{Kind: kind.String(), Shards: shards}
	serialRep, err := recoveryRun(kind, shards, epochs, epochSize, true)
	if err != nil {
		return e, err
	}
	parallelRep, err := recoveryRun(kind, shards, epochs, epochSize, false)
	if err != nil {
		return e, err
	}
	for _, r := range parallelRep.Reports {
		e.EventsReplayed += r.EventsReplayed
	}
	e.TargetEpoch = parallelRep.Target
	e.AlignedShards = parallelRep.AlignedShards
	e.SerialSimUs = us(parallelRep.SerialSim)
	e.ParallelSimUs = us(parallelRep.ParallelSim)
	e.SpeedupX = parallelRep.Speedup()
	if parallelRep.Profile != nil {
		e.Balance = parallelRep.Profile.Balance()
	}
	e.SerialWallUs = us(serialRep.Wall)
	e.ParallelWallUs = us(parallelRep.Wall)
	return e, nil
}

// shardGrid is the shard suite's grid at one size.
type shardGrid struct {
	// epochs x epochSize events per scaling run, repeat samples per cell.
	epochs, epochSize, repeat int
	// recEpochs x recEpochSize events per recovery run: a snapshot, then a
	// tail past the last commit for the recovery to replay.
	recEpochs, recEpochSize int
}

func shardPlan(quick bool) shardGrid {
	if quick {
		return shardGrid{epochs: 4, epochSize: 256, repeat: 2, recEpochs: 7, recEpochSize: 128}
	}
	return shardGrid{epochs: 6, epochSize: 2048, repeat: 5, recEpochs: 11, recEpochSize: 512}
}

// The shard layer's acceptance thresholds: ingest scaling of the
// partition-local variant at 8 shards, and the simulated group-recovery
// speedup at 4.
const (
	scaling8xGate         = 0.8 * 8
	recoverySpeedup4xGate = 0.7 * 4
)

var shardSuite = Suite[ShardReport]{
	Spec: Spec{
		Name:  "shard",
		File:  "BENCH_shard.json",
		Quick: "3 variants x shards {1,2,4,8}, 4 epochs x 256 events, 2 samples; recovery 7 epochs x 128 events",
		Full:  "3 variants x shards {1,2,4,8}, 6 epochs x 2048 events, 5 samples; recovery 11 epochs x 512 events",
	},
	Run: runShard,
	Gates: []Gate[ShardReport]{
		countGate("scaling_cells", "shard", "variants x fan-outs",
			func(r *ShardReport) int { return len(r.Scaling) }, func(bool) int { return len(variants) * len(fanouts) }),
		gate("scaling_workloads", "shard", "every variant (gs-local, gs-replicated, gs-skewed) at every fan-out", func(r *ShardReport) (bool, string) {
			seen := map[string]int{}
			for _, e := range r.Scaling {
				seen[e.Workload]++
			}
			for _, v := range variants {
				if seen[v.name] != len(fanouts) {
					return false, fmt.Sprintf("%d %s cells", seen[v.name], v.name)
				}
			}
			return true, ""
		}),
		cellsGate("scaling_positive", "shard", "sim_wall_us > 0 and throughput_eps > 0 in every scaling cell",
			func(r *ShardReport) []ScalingEntry { return r.Scaling },
			func(e ScalingEntry) string { return fmt.Sprintf("%s/%d", e.Workload, e.Shards) },
			func(e ScalingEntry) bool { return e.SimWallUs > 0 && e.ThroughputEps > 0 }),
		fullOnly(gate("scaling_8x", "shard", "gs-local scaling_x at 8 shards >= 0.8 x 8", func(r *ShardReport) (bool, string) {
			return r.Checks.Scaling8x >= scaling8xGate, fmt.Sprintf("%.2fx", r.Checks.Scaling8x)
		})),
		countGate("recovery_cells", "shard", "one recovery cell per fan-out",
			func(r *ShardReport) int { return len(r.Recovery) }, func(bool) int { return len(fanouts) }),
		cellsGate("recovery_serial_ge_parallel", "shard", "serial_sim_us >= parallel_sim_us at every fan-out",
			shardRecoveries, recoveryLabel, func(e RecoveryEntry) bool { return e.SerialSimUs >= e.ParallelSimUs }),
		cellsGate("recovery_replayed", "shard", "events_replayed > 0 at every fan-out",
			shardRecoveries, recoveryLabel, func(e RecoveryEntry) bool { return e.EventsReplayed > 0 }),
		gate("recovery_speedup_4x", "shard", "exactly one 4-shard recovery cell, speedup_x >= 0.7 x 4", func(r *ShardReport) (bool, string) {
			n, x := 0, 0.0
			for _, e := range r.Recovery {
				if e.Shards == 4 {
					n, x = n+1, e.SpeedupX
				}
			}
			return n == 1 && x >= recoverySpeedup4xGate, fmt.Sprintf("%d 4-shard cells, %.2fx", n, x)
		}),
	},
	Summary: summarizeShard,
}

func shardRecoveries(r *ShardReport) []RecoveryEntry { return r.Recovery }
func recoveryLabel(e RecoveryEntry) string           { return fmt.Sprintf("%s/%d", e.Kind, e.Shards) }

func runShard(env *Env, rep *ShardReport) error {
	grid := shardPlan(env.quick())

	// The scaling estimator times sub-millisecond per-shard windows; a GC
	// cycle landing inside one inflates the epoch's max-over-shards. Run
	// collections only between repeats (measureScaling calls runtime.GC).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	rep.Epochs, rep.EpochSize = grid.epochs, grid.epochSize
	rep.Note = "Scaling cells run the shard group with SerialEpochs and derive the " +
		"group ingest wall as sum over epochs of (max per-shard wall + barrier " +
		"wall) — the wall an N-core host would see. gs-local is the " +
		"partition-local configuration (LocalReads, replication off) the 0.8xN " +
		"gate applies to; gs-replicated shows the frontier-broadcast tax; " +
		"gs-skewed the theta=1.0 hot-shard imbalance. Recovery cells ingest, " +
		"crash, and group-recover; speedup_x is the deterministic simulated " +
		"serial-over-parallel ratio (sum vs max of per-shard SimWall), gated " +
		"at 0.7xN for N=4. Real walls are informational on shared hosts."

	for _, v := range variants {
		var base float64
		for _, n := range fanouts {
			e, err := measureScaling(v, n, grid.epochs, grid.epochSize, grid.repeat)
			if err != nil {
				return err
			}
			if n == 1 {
				base = e.ThroughputEps
			}
			if base > 0 {
				e.ScalingX = e.ThroughputEps / base
			}
			rep.Scaling = append(rep.Scaling, e)
			env.logf("%-13s shards=%d: sim wall %8.0f µs, %9.0f ev/s, scaling %.2fx\n",
				v.name, n, e.SimWallUs, e.ThroughputEps, e.ScalingX)
			if v.name == "gs-local" && n == 8 {
				rep.Checks.Scaling8x = e.ScalingX
				rep.Checks.Scaling8xPass = e.ScalingX >= scaling8xGate
			}
		}
	}

	for _, n := range fanouts {
		e, err := measureRecovery(ftapi.WAL, n, grid.recEpochs, grid.recEpochSize)
		if err != nil {
			return err
		}
		rep.Recovery = append(rep.Recovery, e)
		env.logf("recovery WAL shards=%d: %5d replayed, serial sim %8.0f µs, parallel sim %8.0f µs, speedup %.2fx, balance %.2f\n",
			n, e.EventsReplayed, e.SerialSimUs, e.ParallelSimUs, e.SpeedupX, e.Balance)
		if n == 4 {
			rep.Checks.RecoverySpeedup4x = e.SpeedupX
			rep.Checks.RecoverySpeedup4xPass = e.SpeedupX >= recoverySpeedup4xGate
		}
	}
	return nil
}

// summarizeShard keeps the shard layer's headlines: the recorded gate
// verdicts, the gs-local scaling curve, and the recovery speedup per
// fan-out.
func summarizeShard(r *ShardReport) map[string]any {
	out := map[string]any{
		"scaling_8x":               r.Checks.Scaling8x,
		"scaling_8x_pass":          r.Checks.Scaling8xPass,
		"recovery_speedup_4x":      r.Checks.RecoverySpeedup4x,
		"recovery_speedup_4x_pass": r.Checks.RecoverySpeedup4xPass,
		"scaling_cells":            len(r.Scaling),
		"recovery_cells":           len(r.Recovery),
	}
	for _, c := range r.Scaling {
		if c.Workload == "gs-local" {
			out[fmt.Sprintf("local_scaling_%dx", c.Shards)] = c.ScalingX
		}
	}
	for _, c := range r.Recovery {
		out[fmt.Sprintf("recovery_speedup_%dx", c.Shards)] = c.SpeedupX
	}
	return out
}
