package main

import (
	"runtime"
	"time"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// spec is one workload: a traffic shape, an application, a shard fan-out
// and a device model. Everything not named here runs at its zero value.
type spec struct {
	name string
	// why is the reason the workload exists; BENCHMARK.json carries it.
	why string

	sl     bool // Streaming Ledger instead of Grep&Sum
	shards int
	batch  int // events per batch

	// rate is the open-loop Poisson arrival rate in batches/s per
	// connection; 0 makes the workload closed loop with inflight batches
	// outstanding per connection.
	rate     float64
	inflight int

	// cloudDisk puts every device, coordinator included, behind a 1 ms per
	// operation, 200 MiB/s model of a network-attached disk's fsync.
	cloudDisk bool
	// kills arms KillShard(0) and KillGroup() alternately during the window.
	kills bool
}

var specs = []spec{
	{
		name: "idle", shards: 2, batch: 8, rate: 250,
		why: "open loop at 1% of saturation: latency is pump-tick residency and CPU is wake-ups and heartbeat epochs, so hot-path work must not show here",
	},
	{
		name: "saturate", shards: 2, batch: 64, inflight: 32,
		why: "closed loop, CPU-bound, 2 shards: frame decode, route, TPG build, execute and seal do nearly all the work, tick changes should not show",
	},
	{
		name: "contended", sl: true, shards: 1, batch: 64, inflight: 32,
		why: "closed loop Streaming Ledger on 1 shard: long dependency chains and aborts use tpg, scheduler and ft differently while the shard layer is bypassed",
	},
	{
		name: "failover", shards: 2, batch: 64, rate: 500, cloudDisk: true, kills: true,
		why: "open loop at 15% of saturation on 1 ms devices with a shard or group kill every 2 s: latency is device-bound commit and exactly-once is proven through the heals",
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// lanes is the number of connections, which is also the number of tenants
// and the workers per engine.
func lanes() int { return min(runtime.NumCPU(), 4) }

const (
	tableRows   = 4096
	ringBatches = 512 // pre-generated batches per connection, cycled
)

// generator builds the workload's seeded event source. lane separates the
// streams of the connections and of the recovery fixture.
func (sp *spec) generator(seed int64, lane int) workload.Generator {
	s := seed*1_000_003 + int64(lane)*101
	if sp.sl {
		p := workload.DefaultSLParams()
		p.Seed, p.Rows, p.Theta = s, tableRows, 0.8
		return workload.NewSL(p)
	}
	p := workload.DefaultGSParams()
	p.Seed, p.Rows, p.Theta = s, tableRows, 0
	return workload.NewGS(p)
}

// ring pre-generates one connection's batches so that generation costs
// nothing inside the window.
func (sp *spec) ring(seed int64, lane int) [][]types.Event {
	g := sp.generator(seed, lane)
	out := make([][]types.Event, ringBatches)
	for i := range out {
		out[i] = workload.Batch(g, sp.batch)
	}
	return out
}

func (sp *spec) device() storage.Device {
	seg := storage.NewSegStore(storage.SegConfig{})
	if !sp.cloudDisk {
		return seg
	}
	// Charges of 1 ms and more sleep, they do not spin, so the model costs
	// latency and not CPU.
	return &storage.Throttled{
		Inner: seg, OpLatency: time.Millisecond,
		WriteBytesPerSec: 200 << 20, ReadBytesPerSec: 200 << 20,
	}
}

// deviceWrap decorates a device; the traced run times devices with it.
type deviceWrap func(role string, d storage.Device) storage.Device

// groupConfig assembles the shard group over fresh devices.
func (sp *spec) groupConfig(app types.App, wrap deviceWrap) shard.Config {
	if wrap == nil {
		wrap = func(_ string, d storage.Device) storage.Device { return d }
	}
	devs := make([]storage.Device, sp.shards)
	for i := range devs {
		devs[i] = wrap("shard", sp.device())
	}
	return shard.Config{
		GroupShape: types.GroupShape{RunShape: types.RunShape{Workers: lanes()}, Shards: sp.shards},
		App:        app,
		Kind:       ftapi.MSR,
		Devices:    devs,
		CoordDev:   wrap("coord", sp.device()),
	}
}

// written sums the payload bytes written to every device of the group, by
// log or blob name.
func written(cfg shard.Config) map[string]int64 {
	out := map[string]int64{}
	for _, d := range append([]storage.Device{cfg.CoordDev}, cfg.Devices...) {
		for name, n := range d.BytesWritten() {
			out[name] += n
		}
	}
	return out
}
