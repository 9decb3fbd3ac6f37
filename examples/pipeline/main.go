// Pipeline: continuous operation of one engine fed epoch by epoch, with
// the Section VII extensions enabled: asynchronous group commit (durable
// writes off the critical path) and log compression.
//
// The run crashes mid-stream, resumes the stream on the recovered engine
// from the punctuation recovery reports, and shows the outputs both
// incarnations released ending up complete and duplicate-free.
//
// Run with: go run ./examples/pipeline
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

	// Asynchronous commit is an engine knob (a group's shards commit in
	// lockstep), so the engine is built directly: MSR over a compressing
	// device, one ledger recording what it and its recovery release.
	dev := storage.NewCompressed(storage.NewMem()) // DEFLATE the durable logs
	ledger := &engine.Ledger{}
	ec := engine.Config{
		RunShape:      types.RunShape{Workers: 4, SnapshotEvery: 8},
		App:           gen.App(),
		Device:        dev,
		AsyncCommit:   true, // commit off the critical path
		Sink:          ledger.Sink,
		RecoveryCosts: vtime.FixedCosts(),
	}
	withMSR(&ec)
	eng, err := engine.New(ec)
	if err != nil {
		log.Fatal(err)
	}

	// Run ten epochs, then lose power. Only released outputs count as
	// delivered: the crash discards whatever still awaited its commit.
	for _, b := range batches[:10] {
		if err := eng.ProcessEpoch(b); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("engine delivered %d outputs, then the node dies\n", len(ledger.Outputs))
	eng.Crash()

	withMSR(&ec) // recovery runs a fresh mechanism over the same device
	recovered, report, err := engine.Recover(ec)
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	fmt.Printf("recovered: %d events replayed, simulated wall %v\n",
		report.EventsReplayed, report.SimWall().Round(0))

	// Resume after the last epoch recovery restored; the engine replayed
	// everything before it from the durable logs.
	for _, b := range batches[report.LastEpoch:] {
		if err := recovered.ProcessEpoch(b); err != nil {
			log.Fatal(err)
		}
	}
	delivered := ledger.Outputs // both incarnations' releases

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

// withMSR gives ec a fresh MorphStreamR mechanism over its device.
func withMSR(ec *engine.Config) {
	ec.Bytes = metrics.NewBytes()
	ec.Mechanism = ft.New(ftapi.MSR, ec.Device, ec.Bytes, msr.Default())
}
