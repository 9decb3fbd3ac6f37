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

// shardRef is a reference run: the pre-generated global batches and the
// sharded oracle's replay of them. On one shard it is a single engine's
// oracle (a group of one replicates nothing), which is what the
// single-engine sweeps check against.
type shardRef struct {
	app     types.App
	batches [][]types.Event // batches[e-1] is epoch e's events
	orc     *shard.GroupOracle
}

// buildRef generates epochs batches of cfg's workload and replays them on
// shards shards.
func buildRef(cfg *Config, shards, epochs int) (*shardRef, error) {
	gen := cfg.NewGen()
	app := gen.App()
	batches := make([][]types.Event, epochs)
	for i := range batches {
		batches[i] = workload.Batch(gen, cfg.EpochSize)
	}
	orc, err := shard.NewGroupOracle(app, shards, batches)
	if err != nil {
		return nil, err
	}
	return &shardRef{app: app, batches: batches, orc: orc}, nil
}

// newShardGroup assembles a group of cfg's shape running app over the given
// devices, observed by o and recording into ledgers (nil for none of either).
func newShardGroup(cfg *ShardConfig, app types.App, devs []storage.Device, coord storage.Device, o *obs.Observer, ledgers shard.Ledgers) (*shard.Group, error) {
	c := shard.Config{
		GroupShape: types.GroupShape{RunShape: cfg.RunShape, Shards: cfg.Shards},
		App:        app,
		Kind:       cfg.Kind,
		Devices:    devs,
		CoordDev:   coord,
		Obs:        o,
	}
	if ledgers != nil {
		c.Sink = ledgers.Sink
	}
	return shard.NewGroup(c)
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
	ref, err := buildRef(&cfg.Config, cfg.Shards, cfg.Epochs+1)
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

	g, err := newShardGroup(cfg, ref.app, devs, coordStack.MustBuild(), nil, nil)
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
	ref, err := buildRef(&cfg.Config, cfg.Shards, cfg.Epochs+1)
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

// shardCrash runs the sharded workload with device d (shard index, or
// Shards for the coordinator) dying at its k-th target-matching write,
// crashes the group, and recovers it with GroupRecover from the surviving
// media (the Faulty wrapper stays dead; the inner devices are the platters
// that survived). One set of ledgers spans the crash and the recovery.
func shardCrash(cfg *ShardConfig, ref *shardRef, d, k int) (*shard.Group, *shard.GroupReport, shard.Ledgers, error) {
	inner := make([]storage.Device, cfg.Shards+1) // the coordinator's last
	devs := make([]storage.Device, cfg.Shards+1)
	for i := range inner {
		inner[i] = storage.NewMem()
		devs[i] = inner[i]
	}
	devs[d] = storage.NewStack(inner[d]).WithFaulty(k, cfg.Mode, cfg.Target).MustBuild()
	ledgers := make(shard.Ledgers, cfg.Shards)
	g, err := newShardGroup(cfg, ref.app, devs[:cfg.Shards], devs[cfg.Shards], nil, ledgers)
	if err != nil {
		return nil, nil, nil, err
	}
	if procErr := g.Run(ref.batches[:cfg.Epochs]); procErr == nil {
		return nil, nil, nil, fmt.Errorf("budget %d never hit the injected fault", k)
	}
	g.Crash()
	g2, report, err := shard.GroupRecover(shard.RecoverConfig{
		Config: shard.Config{
			GroupShape: types.GroupShape{RunShape: cfg.RunShape, Shards: cfg.Shards},
			App:        ref.app,
			Kind:       cfg.Kind,
			Devices:    inner[:cfg.Shards],
			CoordDev:   inner[cfg.Shards],
			Sink:       ledgers.Sink,
		},
		Source: types.BatchSource(ref.batches),
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("group recover: %w", err)
	}
	return g2, report, ledgers, nil
}

// shardRunOne executes one sharded crash-recover-verify cycle with device
// d dying at its k-th target-matching write (see shardCrash).
func shardRunOne(cfg *ShardConfig, ref *shardRef, d, k int) error {
	g2, report, ledgers, err := shardCrash(cfg, ref, d, k)
	if err != nil {
		return err
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
	if err := checkShardOutputs(ref, g2, ledgers, last); err != nil {
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
		if err := checkShardOutputs(ref, g2, ledgers, last+1); err != nil {
			return fmt.Errorf("post-recovery: %w", err)
		}
	}
	return nil
}

// checkShardOutputs verifies exactly-once application delivery per shard —
// what each shard's ledger recorded across its incarnations, each released
// epoch once and in order — and the cross-shard agreement that the shards
// together account for every event of the run exactly once (routing is a
// partition: no event may surface on two shards).
func checkShardOutputs(ref *shardRef, g *shard.Group, ledgers shard.Ledgers, last uint64) error {
	global := make(map[uint64]int)
	for s := range ledgers {
		if err := ref.orc.CheckOutputs(s, last, &ledgers[s], g.Engine(s)); err != nil {
			return err
		}
		for _, out := range ledgers[s].Outputs {
			if shard.IsReplication(out) {
				continue
			}
			if prev, dup := global[out.EventSeq]; dup {
				return fmt.Errorf("event %d surfaced on shard %d and shard %d", out.EventSeq, prev, s)
			}
			global[out.EventSeq] = s
		}
	}
	return nil
}
