// Pipeline: continuous operation of one system fed epoch by epoch, with
// the Section VII extensions enabled: asynchronous group commit (durable
// writes off the critical path) and log compression.
//
// The run crashes mid-stream, resumes the stream on the recovered system
// from the punctuation recovery reports, and shows the outputs both
// incarnations released ending up complete and duplicate-free.
//
// Run with: go run ./examples/pipeline
package main

import (
	"fmt"
	"log"

	"morphstreamr/internal/core"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

const (
	batch  = 1024
	epochs = 16
)

func main() {
	params := workload.DefaultTPParams()
	gen := workload.NewTP(params)
	batches := make([][]types.Event, epochs)
	for i := range batches {
		batches[i] = workload.Batch(gen, batch)
	}

	sys, err := core.New(gen.App(), core.Config{
		RunShape:    core.RunShape{Workers: 4, SnapshotEvery: 8},
		FT:          core.MSR,
		AsyncCommit: true, // commit off the critical path
		Compression: true, // DEFLATE the durable logs
	})
	if err != nil {
		log.Fatal(err)
	}

	// Run ten epochs, then lose power. Only released outputs count as
	// delivered: the crash discards whatever still awaited its commit.
	for _, b := range batches[:10] {
		if err := sys.ProcessBatch(b); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("system delivered %d outputs, then the node dies\n", len(sys.Delivered()))
	sys.Crash()

	recovered, report, err := sys.Recover()
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	fmt.Printf("recovered: %d events replayed, simulated wall %v\n",
		report.EventsReplayed, report.SimWall().Round(0))

	// Resume after the last epoch recovery restored; the engine replayed
	// everything before it from the durable logs.
	for _, b := range batches[report.LastEpoch:] {
		if err := recovered.ProcessBatch(b); err != nil {
			log.Fatal(err)
		}
	}
	delivered := recovered.Delivered() // both incarnations' releases

	seen := make(map[uint64]bool, len(delivered))
	var tolls int64
	for _, out := range delivered {
		if seen[out.EventSeq] {
			log.Fatalf("duplicate output for event %d", out.EventSeq)
		}
		seen[out.EventSeq] = true
		if out.Vals[0] == 0 {
			tolls += out.Vals[1]
		}
	}
	if len(delivered) != epochs*batch {
		log.Fatalf("delivered %d outputs across the crash, want %d", len(delivered), epochs*batch)
	}
	fmt.Printf("delivered %d/%d outputs, exactly once; total tolls %d\n",
		len(delivered), epochs*batch, tolls)

	dev := sys.Cfg.Device
	if th, ok := dev.(*storage.Throttled); ok {
		dev = th.Inner
	}
	if c, ok := dev.(*storage.Compressed); ok {
		fmt.Printf("durable log compression ratio: %.2f\n", c.Ratio())
	}
}
