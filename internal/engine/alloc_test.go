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

// TestProcessEpochAllocsOnlyOutputs pins the recycled epoch path: once the
// graph, its operation arena and the pooled encode buffers have grown, a
// warm ProcessEpoch on GS and SL allocates per event only what the ledger
// keeps, one Vals slice per output. What remains is a handful of per-epoch
// allocations whatever the epoch's size: the output slice, the sealed
// epoch's record and commit closure, the scheduler's frontier.
func TestProcessEpochAllocsOnlyOutputs(t *testing.T) {
	const size, warm, runs, perEpoch = 512, 8, 20, 12
	gs := workload.DefaultGSParams()
	gs.Rows = 512
	for _, gen := range []workload.Generator{workload.NewGS(gs), slGen(5)} {
		e := newEngine(t, ftapi.MSR, gen, discardAppends{storage.NewMem()}, 1, 1<<20)
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
		if got := testing.AllocsPerRun(runs, epoch); got > size+perEpoch {
			t.Errorf("%s: warm ProcessEpoch of %d events: %.0f allocs, want <= %d (one per output + %d)", gen.App().Name(), size, got, size+perEpoch, perEpoch)
		}
	}
}
