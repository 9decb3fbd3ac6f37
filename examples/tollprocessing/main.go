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

	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
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

// run processes the stream under one scheme on a one-shard group, crashes
// it, recovers it, and tallies the delivered outputs, auditing that each
// event's output was delivered at most once and, with the ones still
// pending, exactly once.
func run(kind ftapi.Kind, params workload.TPParams) (*engine.RecoveryReport, int64, int, int) {
	gen := workload.NewTP(params)
	stream := make([][]types.Event, epochs)
	for i := range stream {
		stream[i] = workload.Batch(gen, batch)
	}
	ledgers := make(shard.Ledgers, 1)
	cfg := shard.Config{
		GroupShape: types.GroupShape{RunShape: types.RunShape{Workers: 4, SnapshotEvery: 8}, Shards: 1},
		App:        gen.App(),
		Kind:       kind,
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
	g.Crash()
	g, rep, err := shard.GroupRecover(shard.RecoverConfig{Config: cfg, Source: types.BatchSource(stream)})
	if err != nil {
		log.Fatal(err)
	}
	defer g.Engine(0).Close()
	var tolls int64
	aborted := 0
	seen := make(map[uint64]bool, len(ledgers[0].Outputs))
	// The ledger holds what both incarnations released.
	for _, out := range ledgers[0].Outputs {
		if seen[out.EventSeq] {
			log.Fatalf("AUDIT FAIL: duplicate output for event %d", out.EventSeq)
		}
		seen[out.EventSeq] = true
		if out.Vals[0] == 1 {
			aborted++
			continue
		}
		tolls += out.Vals[1]
	}
	pending := g.Engine(0).PendingOutputs()
	if got := len(seen) + pending; got != epochs*batch {
		log.Fatalf("AUDIT FAIL: %v: %d outputs delivered or pending, want %d", kind, got, epochs*batch)
	}
	return rep.Reports[0], tolls, aborted, pending
}
