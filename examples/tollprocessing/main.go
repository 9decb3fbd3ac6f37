// Toll Processing: the Linear Road-style workload where invalid vehicle
// reports abort their transactions. The example contrasts recovery under
// global checkpointing (CKPT) and MorphStreamR (MSR) on the same abort-
// heavy stream — showing abort pushdown doing its job: MSR never spends
// recovery time re-discovering that a third of the events were doomed.
//
// Run with: go run ./examples/tollprocessing
package main

import (
	"fmt"
	"log"

	"morphstreamr/internal/core"
	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/workload"
)

const (
	batch  = 4096
	epochs = 12 // snapshot at 8, crash at 12: recovery replays 4 epochs
)

func main() {
	params := workload.DefaultTPParams()
	params.AbortRatio = 0.35

	fmt.Printf("toll processing: %d road segments, %.0f%% invalid reports\n",
		params.Segments, params.AbortRatio*100)

	for _, kind := range []ftapi.Kind{ftapi.CKPT, ftapi.MSR} {
		report, tolls, abortedOutputs, pending := run(kind, params)
		fmt.Printf("\n--- %v ---\n", kind)
		fmt.Printf("recovered %d events, simulated wall %v\n",
			report.EventsReplayed, report.SimWall().Round(0))
		bd := report.Breakdown.PerWorker(report.Workers)
		fmt.Printf("breakdown: %v\n", bd)
		fmt.Printf("abort handling during recovery: %v\n", bd.Abort)
		fmt.Printf("tolls charged so far: %d; invalid reports rejected: %d\n",
			tolls, abortedOutputs)
		if pending > 0 {
			fmt.Printf("(%d outputs still await their durability gate — CKPT releases "+
				"outputs only at snapshot markers)\n", pending)
		}
	}
}

// run processes the stream under one scheme, crashes, recovers, and
// tallies the delivered outputs.
func run(kind ftapi.Kind, params workload.TPParams) (*engine.RecoveryReport, int64, int, int) {
	gen := workload.NewTP(params)
	sys, err := core.New(gen.App(), core.Config{
		RunShape: core.RunShape{Workers: 4, SnapshotEvery: 8},
		FT:       kind,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < epochs; i++ {
		if err := sys.ProcessBatch(workload.Batch(gen, batch)); err != nil {
			log.Fatal(err)
		}
	}
	sys.Crash()
	recovered, report, err := sys.Recover()
	if err != nil {
		log.Fatal(err)
	}
	var tolls int64
	aborted := 0
	// The recovered system's ledger holds what both incarnations released.
	for _, out := range recovered.Delivered() {
		if out.Vals[0] == 1 {
			aborted++
			continue
		}
		tolls += out.Vals[1]
	}
	return report, tolls, aborted, recovered.Engine.PendingOutputs()
}
