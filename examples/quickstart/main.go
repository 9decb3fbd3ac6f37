// Quickstart: run a Streaming Ledger application under MorphStreamR fault
// tolerance, crash it mid-stream, and recover — the 60-second tour of the
// library's API, on the host the server runs: a shard group, here of one
// shard.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

const (
	batch  = 2048
	crash  = 12 // epochs before the power fails
	epochs = 13 // and one more after recovery
)

func main() {
	// 1. An application: Streaming Ledger, the paper's running example.
	//    Generators are deterministic; the same seed replays the same
	//    stream. It is generated up front so recovery can re-read an epoch
	//    from it, the way a server re-reads its ingest log.
	gen := workload.NewSL(workload.DefaultSLParams())
	stream := make([][]types.Event, epochs)
	for i := range stream {
		stream[i] = workload.Batch(gen, batch)
	}

	// 2. A group of one shard: an engine wired to MorphStreamR (MSR) fault
	//    tolerance over a durable device, plus the coordinator's device.
	//    Epochs snapshot every 8 batches; logs group-commit every batch. The
	//    ledger records every output the group releases, across the crash.
	ledgers := make(shard.Ledgers, 1)
	cfg := shard.Config{
		GroupShape: types.GroupShape{RunShape: types.RunShape{Workers: 4, SnapshotEvery: 8}, Shards: 1},
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

	// 3. Process twelve epochs: a checkpoint lands at epoch 8, so the
	//    crash below loses epochs 9-12 from memory — but not from the
	//    durable device.
	if err := g.Run(stream[:crash]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("processed %d events at %.0f events/s; delivered %d outputs\n",
		g.Engine(0).Events(), g.Engine(0).Throughput(), len(ledgers[0].Outputs))
	before := len(ledgers[0].Outputs)

	// 4. Power failure. Everything volatile is gone; the devices survive.
	g.Crash()

	// 5. Recovery: restore the checkpoint, replay the committed epochs
	//    with MorphStreamR's dependency-aware optimizations, and keep
	//    going exactly where the stream left off.
	g, rep, err := shard.GroupRecover(shard.RecoverConfig{Config: cfg, Source: types.BatchSource(stream)})
	if err != nil {
		log.Fatal(err)
	}
	defer g.Engine(0).Close()
	report := rep.Reports[0]
	fmt.Printf("recovered %d events in %v (simulated %d-worker wall: %v)\n",
		report.EventsReplayed, report.Wall.Round(0), report.Workers, report.SimWall().Round(0))
	fmt.Printf("  breakdown: %v\n", report.Breakdown.PerWorker(report.Workers))

	// 6. The recovered group continues as if nothing happened.
	if err := g.ProcessEpoch(stream[g.Epoch()]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed at epoch %d; %d new outputs delivered after recovery\n",
		g.Epoch(), len(ledgers[0].Outputs)-before)

	// 7. Audit: every output was delivered at most once, and with the ones
	//    still awaiting their commit they account for every event.
	seen := make(map[uint64]bool, len(ledgers[0].Outputs))
	for _, out := range ledgers[0].Outputs {
		if seen[out.EventSeq] {
			log.Fatalf("AUDIT FAIL: duplicate output for event %d", out.EventSeq)
		}
		seen[out.EventSeq] = true
	}
	if got := len(seen) + g.Engine(0).PendingOutputs(); got != epochs*batch {
		log.Fatalf("AUDIT FAIL: %d outputs delivered or pending, want %d", got, epochs*batch)
	}
	fmt.Println("audit passed: every event's output exactly once")
}
