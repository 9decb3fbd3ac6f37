// Package fttest provides the shared harness for mechanism-level tests:
// it drives epochs through the real scheduler against a mechanism (the
// way the engine would), runs the oracle alongside, and compares
// recovered state — without pulling in the full engine, so mechanism
// tests stay focused on logging and replay behaviour.
package fttest

import (
	"fmt"
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/oracle"
	"morphstreamr/internal/scheduler"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
	"morphstreamr/internal/vtime"
	"morphstreamr/internal/workload"
)

// Harness drives one mechanism through runtime epochs.
type Harness struct {
	T       *testing.T
	Gen     workload.Generator
	Mech    ftapi.Mechanism
	Dev     storage.Device
	Workers int

	Store  *store.Store
	Oracle *oracle.Oracle
	Inputs []ftapi.EpochEvents
	epoch  uint64
}

// New creates a harness with fresh state.
func New(t *testing.T, gen workload.Generator, mech ftapi.Mechanism, dev storage.Device, workers int) *Harness {
	return &Harness{
		T: t, Gen: gen, Mech: mech, Dev: dev, Workers: workers,
		Store:  store.New(gen.App().Tables()),
		Oracle: oracle.New(gen.App()),
	}
}

// RunEpoch processes one epoch of n events: persist inputs, execute,
// seal. Commit is separate (CommitAll) so tests control grouping.
func (h *Harness) RunEpoch(n int) *ftapi.EpochResult {
	h.T.Helper()
	ep, err := h.TryRunEpoch(n)
	if err != nil {
		h.T.Fatal(err)
	}
	return ep
}

// TryRunEpoch is RunEpoch with the error surfaced instead of t.Fatal —
// the crash-injection harness uses it to drive epochs into a dying device
// and observe where the failure lands. On error, the epoch is not counted:
// the oracle, the input list, and the epoch counter stay where they were,
// so the harness state still describes only completed epochs.
func (h *Harness) TryRunEpoch(n int) (*ftapi.EpochResult, error) {
	events := workload.Batch(h.Gen, n)
	epoch := h.epoch + 1
	if err := h.Dev.Append(storage.LogInput, storage.Record{Epoch: epoch, Payload: nil}); err != nil {
		return nil, err
	}

	g := tpg.BuildEvents(h.Gen.App(), events, h.Store.Get)
	if _, err := scheduler.Run(g, h.Store, scheduler.Options{Workers: h.Workers}); err != nil {
		return nil, err
	}
	h.epoch = epoch
	h.Inputs = append(h.Inputs, ftapi.EpochEvents{Epoch: epoch, Events: events})
	for _, ev := range events {
		h.Oracle.Apply(ev)
	}
	ep := &ftapi.EpochResult{Epoch: epoch, Events: events, Graph: g, Workers: h.Workers}
	h.Mech.SealEpoch(ep)
	return ep, nil
}

// Commit group-commits everything sealed so far.
func (h *Harness) Commit() {
	h.T.Helper()
	if err := h.TryCommit(); err != nil {
		h.T.Fatal(err)
	}
}

// TryCommit is Commit with the error surfaced instead of t.Fatal.
func (h *Harness) TryCommit() error {
	return h.Mech.Commit(h.epoch)
}

// Recover replays the mechanism's committed epochs onto a fresh store,
// priced with vtime.FixedCosts, and returns it with the breakdown.
func (h *Harness) Recover(mech ftapi.Mechanism) (*store.Store, *metrics.RecoveryBreakdown, uint64) {
	h.T.Helper()
	st, bd, committed, err := h.TryRecover(mech)
	if err != nil {
		h.T.Fatal(err)
	}
	return st, bd, committed
}

// TryRecover is Recover with the error surfaced instead of t.Fatal.
func (h *Harness) TryRecover(mech ftapi.Mechanism) (*store.Store, *metrics.RecoveryBreakdown, uint64, error) {
	st := store.New(h.Gen.App().Tables())
	var bd metrics.RecoveryBreakdown
	committed, err := mech.Recover(&ftapi.RecoveryContext{
		App:       h.Gen.App(),
		Store:     st,
		Device:    h.Dev,
		Workers:   h.Workers,
		Inputs:    h.Inputs,
		Execute:   Sequential(st),
		Breakdown: &bd,
		Costs:     vtime.FixedCosts(),
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return st, &bd, committed, nil
}

// Sequential is a RecoveryContext.Execute for a bare mechanism: it runs
// each replayed graph on one thread in timestamp order against st. First
// it checks the premise of vtime's pricing walk on the graph a mechanism
// hands over (restructured, for MSR): every operation's edge-derived
// in-degree equals the pending count the executor is about to use up.
func Sequential(st *store.Store) func(uint64, *tpg.Graph) error {
	return func(ep uint64, g *tpg.Graph) error {
		for _, tn := range g.Txns {
			for _, n := range tn.Ops {
				if n.Indegree() != n.Pending() {
					return fmt.Errorf("fttest: epoch %d: %s has in-degree %d but %d pending", ep, n.Ref(), n.Indegree(), n.Pending())
				}
			}
		}
		_, err := scheduler.RunSequential(g, st, false)
		return err
	}
}

// Epoch reports the last completed epoch.
func (h *Harness) Epoch() uint64 { return h.epoch }

// CheckAgainstOracle compares a store to the harness oracle record by
// record.
func (h *Harness) CheckAgainstOracle(st *store.Store) {
	h.T.Helper()
	bad := 0
	for _, spec := range h.Gen.App().Tables() {
		for row := uint32(0); row < spec.Rows; row++ {
			k := types.Key{Table: spec.ID, Row: row}
			if got, want := st.Get(k), h.Oracle.Value(k); got != want {
				bad++
				if bad <= 3 {
					h.T.Errorf("%v: recovered=%d oracle=%d", k, got, want)
				}
			}
		}
	}
	if bad > 3 {
		h.T.Errorf("... and %d more mismatches", bad-3)
	}
}

// SLGen returns a small Streaming Ledger generator for mechanism tests.
func SLGen(seed int64) workload.Generator {
	p := workload.DefaultSLParams()
	p.Seed, p.Rows, p.AbortRatio = seed, 512, 0.2
	return workload.NewSL(p)
}

// GSGen returns a small skewed Grep&Sum generator.
func GSGen(seed int64) workload.Generator {
	p := workload.DefaultGSParams()
	p.Seed, p.Rows, p.Theta = seed, 512, 1.0
	return workload.NewGS(p)
}

// TPGen returns a small Toll Processing generator with the default's high
// invalid-report rate, so mechanism tests cover aborting transactions.
func TPGen(seed int64) workload.Generator {
	p := workload.DefaultTPParams()
	p.Seed, p.Segments = seed, 256
	return workload.NewTP(p)
}
