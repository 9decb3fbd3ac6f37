package shard_test

import (
	"runtime"
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// BenchmarkGroupEpoch measures one whole group epoch — route, replicate,
// per-shard engine epoch (TPG, execute, MSR seal, markers),
// barrier, frontier record — on the two group shapes the repository
// benchmark serves: Grep&Sum on 2 shards with cross-shard replication, and
// Streaming Ledger on 1 shard. MSR on segment stores, 2048 events an epoch.
func BenchmarkGroupEpoch(b *testing.B) {
	const events = 2048
	gs := workload.DefaultGSParams()
	gs.Theta = 0
	sl := workload.DefaultSLParams()
	sl.Theta = 0.8
	for _, shape := range []struct {
		name   string
		gen    workload.Generator
		shards int
	}{
		{"GS-2shards", workload.NewGS(gs), 2},
		{"SL-1shard", workload.NewSL(sl), 1},
	} {
		b.Run(shape.name, func(b *testing.B) {
			ring := make([][]types.Event, 16)
			for i := range ring {
				ring[i] = workload.Batch(shape.gen, events)
			}
			devs := make([]storage.Device, shape.shards)
			for i := range devs {
				devs[i] = storage.NewSegStore(storage.SegConfig{})
			}
			g, err := shard.NewGroup(shard.Config{
				GroupShape: types.GroupShape{RunShape: types.RunShape{Workers: 2}, Shards: shape.shards},
				App:        shape.gen.App(), Kind: ftapi.MSR,
				Devices: devs, CoordDev: storage.NewSegStore(storage.SegConfig{}),
			})
			if err != nil {
				b.Fatal(err)
			}
			// Epochs reuse the ring's batches under fresh, ascending
			// sequences; nothing retains an epoch's events once
			// ProcessEpoch has returned.
			seq := uint64(1 << 20)
			feed := func(i int) {
				batch := ring[i%len(ring)]
				for j := range batch {
					batch[j].Seq = seq
					seq++
				}
				if err := g.ProcessEpoch(batch); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 16; i++ {
				feed(i) // warm: recycled graphs, a snapshot, the controller's first probes
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				feed(i)
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			n := float64(b.N) * events
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B/event")
		})
	}
}
