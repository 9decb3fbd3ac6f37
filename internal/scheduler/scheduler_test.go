package scheduler

import (
	"fmt"
	"testing"

	"morphstreamr/internal/oracle"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// buildEpoch preprocesses a batch of generated events into a graph plus a
// fresh store.
func buildEpoch(gen workload.Generator, n int) (*tpg.Graph, *store.Store, []types.Event) {
	st := store.New(gen.App().Tables())
	events := workload.Batch(gen, n)
	return tpg.BuildEvents(gen.App(), events, st.Get), st, events
}

// oracleState runs the oracle over the same events for comparison.
func oracleState(gen types.App, events []types.Event) *oracle.Oracle {
	o := oracle.New(gen)
	for _, ev := range events {
		o.Apply(ev)
	}
	return o
}

func compareToOracle(t *testing.T, app types.App, st *store.Store, o *oracle.Oracle) {
	t.Helper()
	bad := 0
	for _, spec := range app.Tables() {
		for row := uint32(0); row < spec.Rows; row++ {
			k := types.Key{Table: spec.ID, Row: row}
			if got, want := st.Get(k), o.Value(k); got != want {
				bad++
				if bad <= 3 {
					t.Errorf("%v: scheduler=%d oracle=%d", k, got, want)
				}
			}
		}
	}
	if bad > 3 {
		t.Errorf("... and %d more mismatches", bad-3)
	}
}

func smallGens(seed int64) map[string]workload.Generator {
	sl := workload.DefaultSLParams()
	sl.Rows, sl.Seed, sl.AbortRatio = 512, seed, 0.15
	gs := workload.DefaultGSParams()
	gs.Rows, gs.Seed, gs.Theta = 512, seed, 1.2
	tp := workload.DefaultTPParams()
	tp.Segments, tp.Seed = 256, seed
	return map[string]workload.Generator{
		"SL": workload.NewSL(sl),
		"GS": workload.NewGS(gs),
		"TP": workload.NewTP(tp),
	}
}

// TestParallelMatchesOracle: the core serializability property — parallel
// TPG execution is conflict-equivalent to sequential timestamp order —
// across workloads, worker counts, and seeds.
func TestParallelMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for name, gen := range smallGens(seed) {
			for _, workers := range []int{1, 2, 4, 7} {
				t.Run(fmt.Sprintf("%s/seed%d/w%d", name, seed, workers), func(t *testing.T) {
					g, st, events := buildEpoch(gen, 800)
					if _, err := Run(g, st, Options{Workers: workers}); err != nil {
						t.Fatal(err)
					}
					compareToOracle(t, gen.App(), st, oracleState(gen.App(), events))
				})
			}
		}
	}
}

// TestSequentialMatchesOracle: the sequential executor agrees too.
func TestSequentialMatchesOracle(t *testing.T) {
	for name, gen := range smallGens(11) {
		t.Run(name, func(t *testing.T) {
			g, st, events := buildEpoch(gen, 500)
			if _, err := RunSequential(g, st, true); err != nil {
				t.Fatal(err)
			}
			compareToOracle(t, gen.App(), st, oracleState(gen.App(), events))
		})
	}
}

// TestAbortAgreement: per-transaction abort decisions must match the
// oracle exactly, not just final state.
func TestAbortAgreement(t *testing.T) {
	gen := smallGens(21)["SL"]
	st := store.New(gen.App().Tables())
	o := oracle.New(gen.App())
	events := workload.Batch(gen, 600)
	g := tpg.BuildEvents(gen.App(), events, st.Get)
	if _, err := Run(g, st, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		txn := gen.App().Preprocess(ev)
		want := o.ExecuteTxn(&txn)
		if got := g.Txns[i].Aborted(); got != want.Aborted {
			t.Fatalf("event %d abort: scheduler=%v oracle=%v", ev.Seq, got, want.Aborted)
		}
	}
}

// TestTimingClocksPopulated: with timing enabled, busy time must be
// recorded and roughly account for the work done.
func TestTimingClocksPopulated(t *testing.T) {
	gen := smallGens(31)["GS"]
	g, st, _ := buildEpoch(gen, 2000)
	clocks, err := Run(g, st, Options{Workers: 3, Timing: true})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range clocks {
		total += int64(c.Execute + c.Explore + c.Wait + c.Abort)
	}
	if total == 0 {
		t.Error("timing enabled but all clocks zero")
	}
	clocks, err = Run(rebuild(gen, st), st, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range clocks {
		if c.Execute != 0 || c.Wait != 0 {
			t.Error("timing disabled but clocks non-zero")
		}
	}
}

func rebuild(gen workload.Generator, st *store.Store) *tpg.Graph {
	events := workload.Batch(gen, 100)
	return tpg.BuildEvents(gen.App(), events, st.Get)
}

func TestBadAssignmentRejected(t *testing.T) {
	gen := smallGens(41)["TP"]
	g, st, _ := buildEpoch(gen, 50)
	_, err := Run(g, st, Options{Workers: 2, Assign: func(*tpg.Chain) int { return 5 }})
	if err == nil {
		t.Error("out-of-range assignment must be rejected")
	}
}

func TestEmptyGraphRuns(t *testing.T) {
	st := store.New([]types.TableSpec{{ID: 0, Rows: 1}})
	g := tpg.Build(nil, st.Get)
	if _, err := Run(g, st, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestHashAssignRange(t *testing.T) {
	assign := HashAssign(5)
	for row := uint32(0); row < 1000; row++ {
		ch := &tpg.Chain{Key: types.Key{Table: types.TableID(row % 3), Row: row}}
		if w := assign(ch); w < 0 || w >= 5 {
			t.Fatalf("HashAssign out of range: %d", w)
		}
	}
}

func TestHashAssignSpreads(t *testing.T) {
	counts := make([]int, 4)
	assign := HashAssign(4)
	for row := uint32(0); row < 4000; row++ {
		counts[assign(&tpg.Chain{Key: types.Key{Row: row}})]++
	}
	for w, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("worker %d got %d of 4000 chains; hash is badly skewed", w, c)
		}
	}
}
