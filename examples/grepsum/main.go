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

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

const (
	batch         = 4096
	epochs        = 24 // snapshots at 16; crash at 24 leaves 8 epochs to recover
	snapshotEvery = 16
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

	for _, c := range configs {
		fmt.Printf("=== %s ===\n", c.name)
		gen := workload.NewGS(c.p)
		stream := make([][]types.Event, epochs)
		for i := range stream {
			stream[i] = workload.Batch(gen, batch)
		}
		// The advisor profiles the first batch's graph; the host configures
		// the group's commit interval with its advice before feeding it.
		first := tpg.BuildEvents(gen.App(), stream[0], store.New(gen.App().Tables()).Get)
		commitEvery := msr.Advise(first, snapshotEvery)
		fmt.Printf("advisor chose a log commitment epoch of %d batch(es)\n", commitEvery)

		// A one-shard group, with one ledger recording what it and its
		// recovery release.
		ledgers := make(shard.Ledgers, 1)
		cfg := shard.Config{
			GroupShape: types.GroupShape{RunShape: types.RunShape{Workers: 4, CommitEvery: commitEvery, SnapshotEvery: snapshotEvery}},
			App:        gen.App(),
			Kind:       ftapi.MSR,
			Devices:    []storage.Device{storage.NewMem()},
			CoordDev:   storage.NewMem(),
			Sink:       ledgers.Sink,
		}
		g, err := shard.NewGroup(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := g.Run(stream); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("runtime: %.0f events/s; ft overhead: %v\n", g.Engine(0).Throughput(), g.Engine(0).Runtime())

		before := len(ledgers[0].Outputs)
		g.Crash()
		g, rep, err := shard.GroupRecover(shard.RecoverConfig{Config: cfg, Source: types.BatchSource(stream)})
		if err != nil {
			log.Fatal(err)
		}
		report := rep.Reports[0]
		fmt.Printf("recovery: %d events in simulated %v (%.0f events/s)\n",
			report.EventsReplayed, report.SimWall().Round(0), report.Throughput())

		// Show the skew the engine just survived: top records by write count
		// are unavailable post-hoc, but the delivered sums tell the story.
		fmt.Printf("outputs delivered after recovery: %d\n", len(ledgers[0].Outputs)-before)
		audit(ledgers[0].Outputs, g.Engine(0).PendingOutputs())
		g.Engine(0).Close()
		fmt.Println()
	}
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
