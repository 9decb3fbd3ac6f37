//go:build !race

// The race detector drops a random share of sync.Pool puts on purpose, so
// pooled paths allocate by design under it; this pin only holds without.

package engine

import (
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// discardAppends drops log appends, so a pin counts the engine's
// allocations and not the device's copies of what it writes.
type discardAppends struct{ *storage.Mem }

func (discardAppends) Append(string, storage.Record) error { return nil }

// TestProcessEpochAllocsConstant pins the recycled epoch path: once the
// graph, its operation arena, the pending-output buffers with their value
// slabs and the pooled encode buffers have grown, a warm ProcessEpoch on GS
// and SL allocates a handful of objects per epoch whatever the epoch's size
// (the sealed epoch's record and commit closure, the scheduler's frontier)
// and nothing per event: outputs are released to the sink from recycled
// memory.
func TestProcessEpochAllocsConstant(t *testing.T) {
	const warm, runs, perEpoch = 8, 20, 8
	gs := workload.DefaultGSParams()
	gs.Rows = 512
	for _, newGen := range []func() workload.Generator{
		func() workload.Generator { return workload.NewGS(gs) },
		func() workload.Generator { return slGen(5) },
	} {
		for _, size := range []int{128, 1024} {
			gen := newGen()
			e := newEngine(t, ftapi.MSR, gen, discardAppends{storage.NewMem()}, 1, 1<<20)
			released := 0
			e.cfg.Sink = func(_ uint64, outs []types.Output) { released += len(outs) }
			batches := make([][]types.Event, warm+runs+1)
			for i := range batches {
				batches[i] = workload.Batch(gen, size)
			}
			next := 0
			epoch := func() {
				if err := e.ProcessEpoch(batches[next]); err != nil {
					t.Fatal(err)
				}
				next++
			}
			for next < warm {
				epoch()
			}
			if got := testing.AllocsPerRun(runs, epoch); got > perEpoch {
				t.Errorf("%s: warm ProcessEpoch of %d events: %.0f allocs, want <= %d whatever the size", gen.App().Name(), size, got, perEpoch)
			}
			if released != next*size {
				t.Fatalf("%s: sink saw %d outputs of %d epochs of %d", gen.App().Name(), released, next, size)
			}
		}
	}
}
