package scheduler_test

import (
	"fmt"
	"testing"

	"morphstreamr/internal/schedbench"
)

// BenchmarkScheduler sweeps the work-stealing scheduler across workloads ×
// worker counts. `go run ./cmd/bench sched` runs the same grid and writes
// the committed BENCH_scheduler.json.
func BenchmarkScheduler(b *testing.B) {
	for _, wl := range schedbench.Workloads() {
		for _, workers := range schedbench.Workers() {
			b.Run(fmt.Sprintf("%s/w%d", wl.Name, workers), func(b *testing.B) {
				ep := schedbench.Prepare(wl)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := schedbench.Run(ep, workers); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(
					float64(ep.G.NumOps)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
			})
		}
	}
}
