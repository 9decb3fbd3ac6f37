package tpg_test

import (
	"runtime"
	"testing"

	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// benchEpochs preprocesses a ring of epochs from gen, each of size events.
func benchEpochs(gen workload.Generator, epochs, size int) [][]*types.Txn {
	app := gen.App()
	out := make([][]*types.Txn, epochs)
	for e := range out {
		out[e] = make([]*types.Txn, size)
		for i := range out[e] {
			txn := app.Preprocess(gen.Next())
			out[e][i] = &txn
		}
	}
	return out
}

// BenchmarkBuilderBuild measures steady-state structural construction on a
// recycled graph — the engine's per-epoch path — for the two epoch shapes
// the repository benchmark serves: Grep&Sum (one op per transaction, three
// parametric reads, uniform keys: an almost edge-free graph of short
// chains) and Streaming Ledger (multi-op transactions over two tables,
// skewed: long chains, logical and parametric edges).
func BenchmarkBuilderBuild(b *testing.B) {
	const events = 2048
	gs := workload.DefaultGSParams()
	gs.Theta = 0
	sl := workload.DefaultSLParams()
	sl.Theta = 0.8
	for _, shape := range []struct {
		name string
		gen  workload.Generator
	}{
		{"GS", workload.NewGS(gs)},
		{"SL", workload.NewSL(sl)},
	} {
		b.Run(shape.name, func(b *testing.B) {
			ring := benchEpochs(shape.gen, 8, events)
			bld := tpg.NewBuilder()
			for _, txns := range ring {
				bld.Release(bld.Build(txns)) // warm: grow arenas and index once
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bld.Release(bld.Build(ring[i%len(ring)]))
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			n := float64(b.N) * events
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B/event")
		})
	}
}
