// Pipeline: continuous operation through the stream layer — a Source
// feeding the engine, a Sink receiving exactly-once outputs — with the
// Section VII extensions enabled: asynchronous group commit (durable
// writes off the critical path) and log compression.
//
// The run crashes mid-stream, re-attaches the pipeline to the recovered
// system, and shows the sink's ledger ending up complete and
// duplicate-free.
//
// Run with: go run ./examples/pipeline
package main

import (
	"fmt"
	"log"

	"morphstreamr/internal/core"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/stream"
	"morphstreamr/internal/workload"
)

const (
	batch       = 1024
	totalEvents = 16 * batch
)

func main() {
	params := workload.DefaultTPParams()
	gen := workload.NewTP(params)
	events := workload.Batch(gen, totalEvents)

	sys, err := core.New(gen.App(), core.Config{
		RunShape:    core.RunShape{Workers: 4, SnapshotEvery: 8},
		FT:          core.MSR,
		BatchSize:   batch,
		AsyncCommit: true, // commit off the critical path
		Compression: true, // DEFLATE the durable logs
	})
	if err != nil {
		log.Fatal(err)
	}

	sink := &stream.MemorySink{}
	src := &stream.SliceSource{Events: events}
	pipe := stream.NewPipeline(sys, src, sink)

	// Run ten epochs, then lose power.
	if err := pipe.Run(10); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline delivered %d outputs, then the node dies\n", len(sink.Outputs))
	sys.Crash()

	recovered, report, err := sys.Recover()
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	fmt.Printf("recovered: %d events replayed, simulated wall %v\n",
		report.EventsReplayed, report.SimWall().Round(0))

	// Re-attach: the source skips what the engine already persisted; the
	// sink keeps its ledger and must see no duplicates.
	resumeSrc := &stream.SliceSource{Events: events}
	resumeSrc.Skip(int(report.LastEpoch) * batch)
	if err := stream.NewPipeline(recovered, resumeSrc, sink).Run(0); err != nil {
		log.Fatal(err)
	}

	seen := make(map[uint64]bool, len(sink.Outputs))
	var tolls int64
	for _, out := range sink.Outputs {
		if seen[out.EventSeq] {
			log.Fatalf("duplicate output for event %d", out.EventSeq)
		}
		seen[out.EventSeq] = true
		if out.Vals[0] == 0 {
			tolls += out.Vals[1]
		}
	}
	fmt.Printf("sink holds %d/%d outputs, exactly once; total tolls %d\n",
		len(sink.Outputs), totalEvents, tolls)

	dev := sys.Cfg.Device
	if th, ok := dev.(*storage.Throttled); ok {
		dev = th.Inner
	}
	if c, ok := dev.(*storage.Compressed); ok {
		fmt.Printf("durable log compression ratio: %.2f\n", c.Ratio())
	}
}
