// Stress tests live in an external package: fttest (whose generators they
// borrow) itself imports scheduler, so an internal test would be a cycle.
package scheduler_test

import (
	"fmt"
	"testing"

	"morphstreamr/internal/ft/fttest"
	"morphstreamr/internal/oracle"
	"morphstreamr/internal/scheduler"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// buildEpoch preprocesses one batch against a store and returns its graph.
func buildEpoch(app types.App, events []types.Event, st *store.Store) *tpg.Graph {
	return tpg.BuildEvents(app, events, st.Get)
}

// runStress drives several epochs of one generator through the parallel
// scheduler under an adversarial assignment (every chain lands on worker
// 0, so with more than one worker every other worker works only by
// stealing) and checks the resulting store against the sequential
// execution and the oracle, plus per-transaction abort verdicts.
func runStress(t *testing.T, newGen func(int64) workload.Generator, seed int64, workers int) {
	t.Helper()
	genP, genS := newGen(seed), newGen(seed)
	app := genP.App()
	stP, stS := store.New(app.Tables()), store.New(app.Tables())
	orc := oracle.New(app)

	const epochs, batch = 4, 384
	for e := 0; e < epochs; e++ {
		events := workload.Batch(genP, batch)
		if es := workload.Batch(genS, batch); len(es) != len(events) {
			t.Fatalf("generators diverged: %d vs %d events", len(events), len(es))
		}
		gP := buildEpoch(app, events, stP)
		gS := buildEpoch(app, events, stS)

		if _, err := scheduler.Run(gP, stP, scheduler.Options{
			Workers: workers,
			Assign:  func(*tpg.Chain) int { return 0 },
		}); err != nil {
			t.Fatalf("epoch %d: parallel run: %v", e+1, err)
		}
		if _, err := scheduler.RunSequential(gS, stS, false); err != nil {
			t.Fatalf("epoch %d: sequential run: %v", e+1, err)
		}
		for _, ev := range events {
			orc.Apply(ev)
		}

		// Abort verdicts are part of the schedule-independent outcome.
		for i := range gP.Txns {
			if gP.Txns[i].Aborted() != gS.Txns[i].Aborted() {
				t.Fatalf("epoch %d txn %d: parallel aborted=%v, sequential aborted=%v",
					e+1, i, gP.Txns[i].Aborted(), gS.Txns[i].Aborted())
			}
		}
	}

	if !stP.Equal(stS) {
		t.Fatalf("parallel store diverges from sequential: %v", stP.Diff(stS, 5))
	}
	for _, sp := range app.Tables() {
		for row := uint32(0); row < sp.Rows; row++ {
			k := types.Key{Table: sp.ID, Row: row}
			if got, want := stP.Get(k), orc.Value(k); got != want {
				t.Fatalf("%v: scheduler=%d oracle=%d", k, got, want)
			}
		}
	}
}

// TestStealingEquivalence: across workloads, worker counts, and seeds, the
// work-stealing scheduler with a pathological initial distribution is
// indistinguishable from sequential execution and the oracle.
func TestStealingEquivalence(t *testing.T) {
	gens := map[string]func(int64) workload.Generator{
		"TP": fttest.TPGen,
		"GS": fttest.GSGen,
		"SL": fttest.SLGen,
	}
	for name, gen := range gens {
		for _, workers := range []int{1, 2, 4, 8} {
			for seed := int64(1); seed <= 2; seed++ {
				name, gen, workers, seed := name, gen, workers, seed
				t.Run(fmt.Sprintf("%s/w%d/s%d", name, workers, seed), func(t *testing.T) {
					t.Parallel()
					runStress(t, gen, seed, workers)
				})
			}
		}
	}
}

// TestStealingHighContention: a single hot key makes the whole epoch one
// temporal chain — the chain-locality fast path and stealing must not
// double-fire or reorder operations on it.
func TestStealingHighContention(t *testing.T) {
	p := workload.DefaultGSParams()
	p.Seed, p.Rows, p.Theta = 7, 4, 1.5 // tiny key space, heavy skew
	newGen := func(seed int64) workload.Generator {
		q := p
		q.Seed = seed
		return workload.NewGS(q)
	}
	for _, workers := range []int{2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			t.Parallel()
			runStress(t, newGen, 7, workers)
		})
	}
}
