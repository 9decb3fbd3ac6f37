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

	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/vtime"
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
		// The advisor is an engine knob (a group's shards share one commit
		// cadence, so a group never consults it): build the engine directly,
		// with one ledger recording what it and its recovery release.
		ledger := &engine.Ledger{}
		ec := engine.Config{
			RunShape:      types.RunShape{Workers: 4, SnapshotEvery: 16},
			AutoCommit:    true, // let the advisor pick the commit epoch
			App:           gen.App(),
			Device:        storage.NewMem(),
			Sink:          ledger.Sink,
			RecoveryCosts: vtime.FixedCosts(),
		}
		withMSR(&ec)
		eng, err := engine.New(ec)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < epochs; i++ {
			if err := eng.ProcessEpoch(workload.Batch(gen, batch)); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("advisor chose a log commitment epoch of %d batch(es)\n", eng.CommitEvery())
		fmt.Printf("runtime: %.0f events/s; ft overhead: %v\n", eng.Throughput(), eng.Runtime())

		before := len(ledger.Outputs)
		eng.Crash()
		withMSR(&ec) // recovery runs a fresh mechanism over the same device
		recovered, report, err := engine.Recover(ec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("recovery: %d events in simulated %v (%.0f events/s)\n",
			report.EventsReplayed, report.SimWall().Round(0), report.Throughput())

		// Show the skew the engine just survived: top records by write count
		// are unavailable post-hoc, but the delivered sums tell the story.
		fmt.Printf("outputs delivered after recovery: %d\n", len(ledger.Outputs)-before)
		audit(ledger.Outputs, recovered.PendingOutputs())
		recovered.Close()
		fmt.Println()
	}
}

// withMSR gives ec a fresh MorphStreamR mechanism over its device.
func withMSR(ec *engine.Config) {
	ec.Bytes = metrics.NewBytes()
	ec.Mechanism = ft.New(ftapi.MSR, ec.Device, ec.Bytes, msr.Default())
}

// audit fails the run unless every event's output was delivered at most once
// and, with the outputs still awaiting their commit, exactly once.
func audit(delivered []types.Output, pending int) {
	seen := make(map[uint64]bool, len(delivered))
	for _, out := range delivered {
		if seen[out.EventSeq] {
			log.Fatalf("AUDIT FAIL: duplicate output for event %d", out.EventSeq)
		}
		seen[out.EventSeq] = true
	}
	if got := len(seen) + pending; got != epochs*batch {
		log.Fatalf("AUDIT FAIL: %d outputs delivered or pending, want %d", got, epochs*batch)
	}
}
