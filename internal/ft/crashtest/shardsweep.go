package crashtest

import (
	"fmt"

	"morphstreamr/internal/obs"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// ShardConfig describes one sharded sweep: the usual mechanism, workload,
// shape, and fault flavour — fanned out over a shard group, with the fault
// injected into one device at a time.
type ShardConfig struct {
	Config
	// Shards is the group fan-out. Zero means 2.
	Shards int
	// SampleEvery strides the enumerated sites of each device (1 sweeps
	// every site; k sweeps every k-th). CI's race-enabled smoke uses a
	// stride so the exhaustive sweep stays a test-time decision.
	SampleEvery int
}

func (c *ShardConfig) normalize() error {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1
	}
	return c.Config.normalize()
}

// ShardFailure is one diverged sharded crash point: the device the fault
// was injected into plus the usual site/mechanism/mode triple.
type ShardFailure struct {
	Device string
	Failure
}

func (f ShardFailure) String() string {
	return fmt.Sprintf("[%s] %v", f.Device, f.Failure)
}

// ShardResult summarises one sharded sweep.
type ShardResult struct {
	// SitesByDevice maps device name ("shard0".."shardN-1", "coord") to
	// its enumerated (target-filtered) write sites.
	SitesByDevice map[string][]storage.WriteSite
	// Runs counts full crash → parallel-recover → verify cycles.
	Runs int
	// Failures lists every diverged crash point; empty means pass.
	Failures []ShardFailure
}

// Sites counts all enumerated sites across devices.
func (r *ShardResult) Sites() int {
	n := 0
	for _, sites := range r.SitesByDevice {
		n += len(sites)
	}
	return n
}

// deviceName labels injection targets: per-shard devices and the
// coordinator's frontier-log device.
func deviceName(shards, i int) string {
	if i == shards {
		return "coord"
	}
	return fmt.Sprintf("shard%d", i)
}

// shardRef is the sharded sweep's reference run: the pre-generated global
// batches (one extra for the Continue epoch) and the sharded oracle.
type shardRef struct {
	app     types.App
	batches [][]types.Event
	orc     *shard.GroupOracle
}

func buildShardRef(cfg *ShardConfig) (*shardRef, error) {
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

// newShardGroup assembles a group of cfg's shape running app over the given
// devices, observed by o (nil for none).
func newShardGroup(cfg *ShardConfig, app types.App, devs []storage.Device, coord storage.Device, o *obs.Observer) (*shard.Group, error) {
	return shard.NewGroup(shard.Config{
		GroupShape: types.GroupShape{RunShape: cfg.RunShape, Shards: cfg.Shards},
		App:        app,
		Kind:       cfg.Kind,
		Devices:    devs,
		CoordDev:   coord,
		Obs:        o,
	})
}

// ShardEnumerate runs the sharded workload fault-free with a counting
// wrapper on every device and returns each device's (target-filtered)
// write sites. Per-device write sequences are deterministic — each shard's
// engine issues its own writes in program order regardless of how the
// shards interleave — which is what makes per-device crash points
// enumerable at all. The fault-free run doubles as the sanity check that
// the sharded protocol already matches its oracle.
func ShardEnumerate(cfg ShardConfig) (map[string][]storage.WriteSite, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	ref, err := buildShardRef(&cfg)
	if err != nil {
		return nil, err
	}
	return shardEnumerate(&cfg, ref)
}

func shardEnumerate(cfg *ShardConfig, ref *shardRef) (map[string][]storage.WriteSite, error) {
	traces := make([]*storage.Trace, cfg.Shards+1)
	devs := make([]storage.Device, cfg.Shards)
	for i := range devs {
		st := storage.NewStack(storage.NewMem()).WithTrace()
		traces[i] = st.Trace
		devs[i] = st.MustBuild()
	}
	coordStack := storage.NewStack(storage.NewMem()).WithTrace()
	traces[cfg.Shards] = coordStack.Trace

	g, err := newShardGroup(cfg, ref.app, devs, coordStack.MustBuild(), nil)
	if err != nil {
		return nil, err
	}
	if err := g.Run(ref.batches[:cfg.Epochs]); err != nil {
		return nil, fmt.Errorf("crashtest: fault-free sharded run failed: %w", err)
	}
	for s := 0; s < cfg.Shards; s++ {
		if err := ref.orc.CheckState(s, uint64(cfg.Epochs), g.Engine(s).Store()); err != nil {
			return nil, fmt.Errorf("crashtest: fault-free sharded run already diverges: %w", err)
		}
	}
	out := make(map[string][]storage.WriteSite, len(traces))
	for i, trace := range traces {
		sites := trace.Sites()
		if cfg.Target != "" {
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

// ShardSweep enumerates every durable write across all shard devices and
// the coordinator's frontier log, and replays the sharded workload once
// per site with that one device dying there: the group crashes, recovers
// all shards in parallel from the surviving media, and must come back
// oracle-equivalent — per-shard state, exactly-once application outputs,
// and (with Continue) a live post-recovery epoch.
func ShardSweep(cfg ShardConfig) (*ShardResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	ref, err := buildShardRef(&cfg)
	if err != nil {
		return nil, err
	}
	sitesBy, err := shardEnumerate(&cfg, ref)
	if err != nil {
		return nil, err
	}
	res := &ShardResult{SitesByDevice: sitesBy}
	for d := 0; d <= cfg.Shards; d++ {
		name := deviceName(cfg.Shards, d)
		for k := 0; k < len(sitesBy[name]); k += cfg.SampleEvery {
			res.Runs++
			if err := shardRunOne(&cfg, ref, d, k); err != nil {
				res.Failures = append(res.Failures, ShardFailure{
					Device: name,
					Failure: Failure{
						Kind: cfg.Kind, Mode: cfg.Mode, Site: sitesBy[name][k], Err: err,
					},
				})
			}
		}
	}
	return res, nil
}

// shardRunOne executes one sharded crash-recover-verify cycle with device
// d (shard index, or Shards for the coordinator) dying at its k-th
// target-matching write.
func shardRunOne(cfg *ShardConfig, ref *shardRef, d, k int) error {
	inner := make([]storage.Device, cfg.Shards)
	devs := make([]storage.Device, cfg.Shards)
	for i := range inner {
		inner[i] = storage.NewMem()
		devs[i] = inner[i]
		if i == d {
			devs[i] = storage.NewStack(inner[i]).WithFaulty(k, cfg.Mode, cfg.Target).MustBuild()
		}
	}
	coordInner := storage.NewMem()
	coord := storage.Device(coordInner)
	if d == cfg.Shards {
		coord = storage.NewStack(coordInner).WithFaulty(k, cfg.Mode, cfg.Target).MustBuild()
	}

	g, err := newShardGroup(cfg, ref.app, devs, coord, nil)
	if err != nil {
		return err
	}
	if procErr := g.Run(ref.batches[:cfg.Epochs]); procErr == nil {
		return fmt.Errorf("budget %d never hit the injected fault", k)
	}
	// Bank each shard's pre-crash ledger before abandoning the group.
	precrash := make([][]types.Output, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		precrash[s] = append([]types.Output(nil), g.Engine(s).Delivered()...)
	}
	g.Crash()

	// Parallel group recovery from the surviving media (the Faulty wrapper
	// stays dead; the inner devices are the platters that survived).
	g2, report, err := shard.GroupRecover(shard.RecoverConfig{
		Config: shard.Config{
			GroupShape: types.GroupShape{RunShape: recoverShape(&cfg.Config), Shards: cfg.Shards},
			App:        ref.app,
			Kind:       cfg.Kind,
			Devices:    inner,
			CoordDev:   coordInner,
		},
		Source: types.BatchSource(ref.batches),
	})
	if err != nil {
		return fmt.Errorf("group recover: %w", err)
	}
	last := report.Target
	if last > uint64(cfg.Epochs) {
		return fmt.Errorf("recovered through epoch %d, beyond the %d run", last, cfg.Epochs)
	}
	for s := 0; s < cfg.Shards; s++ {
		if err := ref.orc.CheckState(s, last, g2.Engine(s).Store()); err != nil {
			return err
		}
	}
	if err := checkShardOutputs(cfg, ref, g2, precrash, last); err != nil {
		return err
	}
	if cfg.Continue && int(last) < len(ref.batches) {
		if err := g2.ProcessEpoch(ref.batches[last]); err != nil {
			return fmt.Errorf("post-recovery epoch %d: %w", last+1, err)
		}
		for s := 0; s < cfg.Shards; s++ {
			if err := ref.orc.CheckState(s, last+1, g2.Engine(s).Store()); err != nil {
				return fmt.Errorf("post-recovery: %w", err)
			}
		}
		if err := checkShardOutputs(cfg, ref, g2, precrash, last+1); err != nil {
			return fmt.Errorf("post-recovery: %w", err)
		}
	}
	return nil
}

// checkShardOutputs verifies exactly-once application delivery per shard —
// the union of each shard's pre-crash and post-recovery ledgers, with
// replication acknowledgements filtered — and the cross-shard agreement
// that the union over shards accounts for every event of the run exactly
// once (routing is a partition: no event may surface on two shards).
func checkShardOutputs(cfg *ShardConfig, ref *shardRef, g *shard.Group, precrash [][]types.Output, last uint64) error {
	global := make(map[uint64]int, cfg.EpochSize*int(last))
	for s := 0; s < cfg.Shards; s++ {
		union := append(append([]types.Output(nil), precrash[s]...), g.DeliveredUnion(s)...)
		union = shard.RealOutputs(union)
		pending := g.Engine(s).PendingOutputsMatching(func(o types.Output) bool {
			return !shard.IsReplication(o)
		})
		if err := ref.orc.CheckOutputs(s, last, union, pending); err != nil {
			return err
		}
		for _, out := range union {
			if prev, dup := global[out.EventSeq]; dup {
				return fmt.Errorf("event %d surfaced on shard %d and shard %d", out.EventSeq, prev, s)
			}
			global[out.EventSeq] = s
		}
	}
	return nil
}
