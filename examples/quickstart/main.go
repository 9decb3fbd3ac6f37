// Quickstart: run a Streaming Ledger application under MorphStreamR fault
// tolerance, crash it mid-stream, and recover — the 60-second tour of the
// library's public API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"morphstreamr/internal/core"
	"morphstreamr/internal/workload"
)

func main() {
	// 1. An application: Streaming Ledger, the paper's running example.
	//    Generators are deterministic; the same seed replays the same
	//    stream.
	gen := workload.NewSL(workload.DefaultSLParams())

	// 2. A system: the engine wired to MorphStreamR (MSR) fault tolerance.
	//    Epochs snapshot every 8 batches; logs group-commit every batch.
	sys, err := core.New(gen.App(), core.Config{
		RunShape: core.RunShape{Workers: 4, SnapshotEvery: 8},
		FT:       core.MSR,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Process twelve epochs: a checkpoint lands at epoch 8, so the
	//    crash below loses epochs 9-12 from memory — but not from the
	//    durable device.
	for epoch := 1; epoch <= 12; epoch++ {
		if err := sys.ProcessBatch(workload.Batch(gen, 2048)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("processed %d events at %.0f events/s; delivered %d outputs\n",
		sys.Engine.Events(), sys.Engine.Throughput(), len(sys.Delivered()))
	before := len(sys.Delivered())

	// 4. Power failure. Everything volatile is gone.
	sys.Crash()

	// 5. Recovery: restore the checkpoint, replay the committed epochs
	//    with MorphStreamR's dependency-aware optimizations, and keep
	//    going exactly where the stream left off.
	recovered, report, err := sys.Recover()
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	fmt.Printf("recovered %d events in %v (simulated %d-worker wall: %v)\n",
		report.EventsReplayed, report.Wall.Round(0), report.Workers, report.SimWall().Round(0))
	fmt.Printf("  breakdown: %v\n", report.Breakdown.PerWorker(report.Workers))

	// 6. The recovered system continues as if nothing happened.
	if err := recovered.ProcessBatch(workload.Batch(gen, 2048)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed at epoch %d; %d new outputs delivered after recovery\n",
		recovered.Engine.Epoch(), len(recovered.Delivered())-before)
}
