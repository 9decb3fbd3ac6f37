// Pipeline: continuous operation of a one-shard group fed epoch by epoch,
// with the Section VII log-compression extension: every durable log is
// DEFLATE-compressed below the device interface.
//
// The run crashes mid-stream, resumes the stream on the recovered group
// from the punctuation recovery reports, and shows the outputs both
// incarnations released ending up complete and duplicate-free.
//
// Run with: go run ./examples/pipeline
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

	// MSR over a compressing device, one ledger recording what the group
	// and its recovery release.
	dev := storage.NewCompressed(storage.NewMem()) // DEFLATE the durable logs
	ledgers := make(shard.Ledgers, 1)
	cfg := shard.Config{
		GroupShape: types.GroupShape{RunShape: types.RunShape{Workers: 4, SnapshotEvery: 8}},
		App:        gen.App(),
		Kind:       ftapi.MSR,
		Devices:    []storage.Device{dev},
		CoordDev:   storage.NewMem(),
		Sink:       ledgers.Sink,
	}
	g, err := shard.NewGroup(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Run ten epochs, then lose power. Only released outputs count as
	// delivered: the crash discards whatever still awaited its commit.
	if err := g.Run(batches[:10]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("group delivered %d outputs, then the node dies\n", len(ledgers[0].Outputs))
	g.Crash()

	g, rep, err := shard.GroupRecover(shard.RecoverConfig{Config: cfg, Source: types.BatchSource(batches)})
	if err != nil {
		log.Fatal(err)
	}
	defer g.Engine(0).Close()
	report := rep.Reports[0]
	fmt.Printf("recovered: %d events replayed, simulated wall %v\n",
		report.EventsReplayed, report.SimWall().Round(0))

	// Resume after the last epoch recovery restored; the group replayed
	// everything before it from the durable logs.
	if err := g.Run(batches[g.Epoch():]); err != nil {
		log.Fatal(err)
	}
	delivered := ledgers[0].Outputs // both incarnations' releases

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
	fmt.Printf("durable log compression ratio: %.2f\n", dev.Ratio())
}
