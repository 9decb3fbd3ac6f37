// Grep&Sum: the skew-heavy analytics workload, demonstrating workload-aware
// log commitment (Section VI-B). The example profiles two very different
// Grep&Sum configurations — uniform with no dependencies versus highly
// skewed with cross-partition reads — and shows the advisor picking a long
// commit epoch for the first and a short one for the second, then runs
// both through a crash to show the recovery consequences.
//
// Run with: go run ./examples/grepsum
package main

import (
	"fmt"
	"log"

	"morphstreamr/internal/core"
	"morphstreamr/internal/workload"
)

const (
	batch  = 4096
	epochs = 24 // snapshots at 16; crash at 24 leaves 8 epochs to recover
)

func main() {
	configs := []struct {
		name string
		p    workload.GSParams
	}{
		{"uniform, no dependencies (LSFD)", func() workload.GSParams {
			p := workload.DefaultGSParams()
			p.Theta, p.Reads = 0, 0
			return p
		}()},
		{"skewed, cross-partition reads (HSMD)", func() workload.GSParams {
			p := workload.DefaultGSParams()
			p.Theta, p.Reads, p.MultiPartitionRatio = 1.2, 3, 0.8
			return p
		}()},
	}

	for _, cfg := range configs {
		fmt.Printf("=== %s ===\n", cfg.name)
		gen := workload.NewGS(cfg.p)
		sys, err := core.New(gen.App(), core.Config{
			RunShape:   core.RunShape{Workers: 4, SnapshotEvery: 16},
			AutoCommit: true, // let the advisor pick the commit epoch
			FT:         core.MSR,
		})
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < epochs; i++ {
			if err := sys.ProcessBatch(workload.Batch(gen, batch)); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("advisor chose a log commitment epoch of %d batch(es)\n",
			sys.Engine.CommitEvery())
		fmt.Printf("runtime: %.0f events/s; ft overhead: %v\n",
			sys.Engine.Throughput(), sys.Engine.Runtime())

		before := len(sys.Delivered())
		sys.Crash()
		recovered, report, err := sys.Recover()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("recovery: %d events in simulated %v (%.0f events/s)\n",
			report.EventsReplayed, report.SimWall().Round(0), report.Throughput())

		// Show the skew the engine just survived: top records by write count
		// are unavailable post-hoc, but the delivered sums tell the story.
		fmt.Printf("outputs delivered after recovery: %d\n\n", len(recovered.Delivered())-before)
	}
}
