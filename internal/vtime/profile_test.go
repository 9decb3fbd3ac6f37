package vtime

import (
	"reflect"
	"testing"
	"time"

	"morphstreamr/internal/scheduler"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// TestSetCalibrationShim: the deprecated setter takes FixedCosts as a no-op
// and panics on any other model, so no caller can mean another one.
func TestSetCalibrationShim(t *testing.T) {
	SetCalibration(FixedCosts())
	scaled := FixedCosts()
	scaled.Op *= 2
	for _, c := range []Costs{{}, scaled} {
		func() {
			defer func() { _ = recover() }()
			SetCalibration(c)
			t.Errorf("SetCalibration(%+v) did not panic", c)
		}()
	}
}

// tinyCosts is the analytic cost model for the hand-built TPG tests: every
// op costs exactly 110ns (10 explore + 100 busy), cross-worker sync and
// per-dependency charges are zero, so expected makespans are small exact
// integers.
var tinyCosts = Costs{Op: 100, Explore: 10}

// buildTiny constructs a TPG from hand-written transactions, executes it,
// and assigns chain owners by key row (chains are listed in key order).
func buildTiny(t *testing.T, txns []*types.Txn, rows uint32, owner func(row uint32) int) *tpg.Graph {
	t.Helper()
	st := store.New([]types.TableSpec{{ID: 0, Rows: rows, Init: 100}})
	g := tpg.Build(txns, st.Get)
	if _, err := scheduler.RunSequential(g, st, false); err != nil {
		t.Fatal(err)
	}
	for _, ch := range g.ChainList {
		ch.Owner = owner(ch.Key.Row)
	}
	return g
}

func oneOp(id uint64, row uint32, deps ...types.Key) *types.Txn {
	fn := types.FnAdd
	if len(deps) > 0 {
		fn = types.FnGuardedAdd
	}
	return &types.Txn{ID: id, TS: id, Ops: []types.Operation{
		{TxnID: id, TS: id, Idx: 0, Key: types.Key{Row: row}, Fn: fn, Const: 1, Deps: deps},
	}}
}

// runTiny walks the graph under a fresh profiler and validates the
// invariants every profile must satisfy before returning it.
func runTiny(t *testing.T, txns []*types.Txn, rows uint32, workers int, owner func(row uint32) int) (Result, Profile) {
	t.Helper()
	g := buildTiny(t, txns, rows, owner)
	prof := NewProfiler(workers)
	r := SimulateGraphProf(g, workers, tinyCosts, prof)
	p := prof.Profile()
	if err := p.Consistent(); err != nil {
		t.Fatalf("inconsistent decomposition: %v", err)
	}
	if p.Timeline != r.Makespan {
		t.Fatalf("profile timeline %v != simulated makespan %v", p.Timeline, r.Makespan)
	}
	if r.Makespan < p.LowerBound {
		t.Fatalf("makespan %v below lower bound %v", r.Makespan, p.LowerBound)
	}
	return r, p
}

// TestCritPathChain: N ops on one key form a pure TD chain. The critical
// path equals the serial work, so no worker count can beat it — makespan
// stays N*(explore+op) for W=1, 2, and "infinity" (W=N).
func TestCritPathChain(t *testing.T) {
	const n = 8
	mk := func() []*types.Txn {
		txns := make([]*types.Txn, n)
		for i := range txns {
			txns[i] = oneOp(uint64(i), 0)
		}
		return txns
	}
	want := time.Duration(n) * 110 // analytic: chain serializes fully
	for _, w := range []int{1, 2, n} {
		r, p := runTiny(t, mk(), 1, w, func(uint32) int { return 0 })
		if r.Makespan != want {
			t.Errorf("chain W=%d makespan = %v, want %v", w, r.Makespan, want)
		}
		if p.CritPath != want {
			t.Errorf("chain W=%d critical path = %v, want %v", w, p.CritPath, want)
		}
		if p.LowerBound != want || p.CPRatio != 1.0 {
			t.Errorf("chain W=%d lb=%v ratio=%v, want lb=%v ratio=1", w, p.LowerBound, p.CPRatio, want)
		}
	}
}

// TestCritPathFanOut: K independent single-op transactions. The critical
// path is one op; the makespan is bounded by work/W and reaches the
// critical path at W=K.
func TestCritPathFanOut(t *testing.T) {
	const k = 8
	mk := func() []*types.Txn {
		txns := make([]*types.Txn, k)
		for i := range txns {
			txns[i] = oneOp(uint64(i), uint32(i))
		}
		return txns
	}
	for _, tc := range []struct {
		workers  int
		makespan time.Duration
	}{
		{1, k * 110},     // all on one lane: pure work-bound
		{2, k / 2 * 110}, // even split: work/W
		{k, 110},         // one op per lane: critical-path-bound
	} {
		r, p := runTiny(t, mk(), k, tc.workers, func(row uint32) int { return int(row) % tc.workers })
		if r.Makespan != tc.makespan {
			t.Errorf("fan-out W=%d makespan = %v, want %v", tc.workers, r.Makespan, tc.makespan)
		}
		if p.CritPath != 110 {
			t.Errorf("fan-out W=%d critical path = %v, want 110ns", tc.workers, p.CritPath)
		}
		if r.Makespan != p.LowerBound {
			t.Errorf("fan-out W=%d makespan %v != lower bound %v (list scheduling is optimal here)",
				tc.workers, r.Makespan, p.LowerBound)
		}
	}
}

// TestCritPathDiamond: A -> {B, C} -> D over parametric dependencies. The
// critical path is three levels (330ns); W=1 is work-bound (440ns), W>=2
// runs B and C concurrently and hits the critical path exactly.
func TestCritPathDiamond(t *testing.T) {
	a, b, c := types.Key{Row: 0}, types.Key{Row: 1}, types.Key{Row: 2}
	mk := func() []*types.Txn {
		return []*types.Txn{
			oneOp(0, 0),       // A
			oneOp(1, 1, a),    // B depends on A
			oneOp(2, 2, a),    // C depends on A
			oneOp(3, 3, b, c), // D depends on B and C
		}
	}
	const cp = 3 * 110
	for _, tc := range []struct {
		workers  int
		makespan time.Duration
	}{
		{1, 4 * 110}, // serial: total work
		{2, cp},      // B and C overlap; D waits for both
		{4, cp},      // extra lanes cannot beat the path
	} {
		r, p := runTiny(t, mk(), 4, tc.workers, func(row uint32) int { return int(row) % tc.workers })
		if r.Makespan != tc.makespan {
			t.Errorf("diamond W=%d makespan = %v, want %v", tc.workers, r.Makespan, tc.makespan)
		}
		if p.CritPath != cp {
			t.Errorf("diamond W=%d critical path = %v, want %v", tc.workers, p.CritPath, time.Duration(cp))
		}
		if tc.workers > 1 {
			// D's lane idles until both producers finish: a PD-attributed
			// stall must appear (drain padding is attributed separately).
			if p.StallByEdge[EdgePD.String()] <= 0 {
				t.Errorf("diamond W=%d: no PD stall recorded: %v", tc.workers, p.StallByEdge)
			}
		}
	}
}

// slGraph builds one Streaming Ledger epoch (multi-op transfers: condition
// guards that abort, parametric dependencies across keys) over a small hot
// table, executes it — on the work-stealing pool at W=2 when pool is set,
// sequentially otherwise — and hash-assigns its chains to workers: a graph
// ready to walk.
func slGraph(tb testing.TB, seed int64, events, workers int, pool bool) *tpg.Graph {
	p := workload.DefaultSLParams()
	p.Seed, p.Rows = seed, 256
	gen := workload.NewSL(p)
	st := store.New(gen.App().Tables())
	batch := workload.Batch(gen, events)
	txns := make([]*types.Txn, len(batch))
	for i := range batch {
		txn := gen.App().Preprocess(batch[i])
		txns[i] = &txn
	}
	g := tpg.Build(txns, st.Get)
	var err error
	if pool {
		_, err = scheduler.Run(g, st, scheduler.Options{Workers: 2})
	} else {
		_, err = scheduler.RunSequential(g, st, false)
	}
	if err != nil {
		tb.Fatal(err)
	}
	assign := scheduler.HashAssign(workers)
	for _, ch := range g.ChainList {
		ch.Owner = assign(ch)
	}
	return g
}

// TestSimulateGraphSameWithAndWithoutProfiler: the walk is one loop whose
// profiler bookkeeping is guarded, and it prices a graph from its edge
// lists and settled abort flags alone. So neither attaching a profiler —
// or the profile would describe a schedule that never runs — nor how the
// graph ran (sequentially, or on the pool, which relabels every chain and
// uses up the pending counters in a racy order) may move a single virtual
// clock or profiler span. Randomised multi-worker graphs; every one must
// contain aborted transactions and cross-worker parametric edges, the two
// places the profiler-only state (attribution, critical path) is touched.
func TestSimulateGraphSameWithAndWithoutProfiler(t *testing.T) {
	costs := Costs{Op: 128, PerDep: 16, Explore: 16, Sync: 128}
	for seed := int64(1); seed <= 6; seed++ {
		for _, workers := range []int{2, 4, 7} {
			off := SimulateGraphProf(slGraph(t, seed, 600, workers, false), workers, costs, nil)

			gOn := slGraph(t, seed, 600, workers, false)
			prof, poolProf := NewProfiler(workers), NewProfiler(workers)
			on := SimulateGraphProf(gOn, workers, costs, prof)
			pooled := SimulateGraphProf(slGraph(t, seed, 600, workers, true), workers, costs, poolProf)

			if !reflect.DeepEqual(off, on) || !reflect.DeepEqual(on, pooled) {
				t.Fatalf("seed %d W=%d: results differ:\n off    %+v\n on     %+v\n pooled %+v", seed, workers, off, on, pooled)
			}
			spans, _ := prof.Spans()
			poolSpans, _ := poolProf.Spans()
			if !reflect.DeepEqual(spans, poolSpans) {
				t.Fatalf("seed %d W=%d: profiler spans differ between the sequential and the pool execution", seed, workers)
			}
			aborted, crossPD := 0, 0
			for _, tn := range gOn.Txns {
				if tn.Aborted() {
					aborted++
				}
				for _, n := range tn.Ops {
					for _, src := range n.PDSrc {
						if src != nil && src.Chain.Owner != n.Chain.Owner {
							crossPD++
						}
					}
				}
			}
			if aborted == 0 || crossPD == 0 {
				t.Fatalf("seed %d W=%d: graph has %d aborted transactions and %d cross-worker PD edges; the case needs both",
					seed, workers, aborted, crossPD)
			}
			p := prof.Profile()
			if err := p.Consistent(); err != nil {
				t.Fatal(err)
			}
			if p.Timeline != on.Makespan {
				t.Fatalf("seed %d W=%d: profile timeline %v != makespan %v", seed, workers, p.Timeline, on.Makespan)
			}
		}
	}
}

// BenchmarkSimulateGraph reports what walking one executed SL epoch costs
// with the profiler off and on (building and executing the graph is
// outside the timer).
func BenchmarkSimulateGraph(b *testing.B) {
	costs := Costs{Op: 128, PerDep: 16, Explore: 16, Sync: 128}
	for _, on := range []bool{false, true} {
		name := "prof-off"
		if on {
			name = "prof-on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := slGraph(b, 1, 4096, 8, false)
				var prof *Profiler
				if on {
					prof = NewProfiler(8)
				}
				b.StartTimer()
				SimulateGraphProf(g, 8, costs, prof)
			}
		})
	}
}

// TestSerialPhaseAccounting: a serial phase must show exactly one active
// lane; the other lanes stall on a SERIAL edge attributed to the phase, and
// that stall counts as dependency stall (StallShare), not drain.
func TestSerialPhaseAccounting(t *testing.T) {
	prof := NewProfiler(4)
	prof.SerialPhase("decode+sort", 1000)
	p := prof.Profile()
	if err := p.Consistent(); err != nil {
		t.Fatal(err)
	}
	ph := p.Phase("decode+sort")
	if ph == nil {
		t.Fatal("missing phase")
	}
	if ph.ActiveLanes != 1 {
		t.Errorf("serial phase active lanes = %d, want 1", ph.ActiveLanes)
	}
	if ph.Makespan != 1000 || ph.Work != 1000 {
		t.Errorf("serial phase makespan=%v work=%v, want 1000/1000", ph.Makespan, ph.Work)
	}
	if got := p.StallByEdge[EdgeSerial.String()]; got != 3*1000 {
		t.Errorf("serial stall = %v, want 3000ns (three idle lanes)", got)
	}
	if share := p.StallShare(); share != 0.75 {
		t.Errorf("StallShare = %v, want 0.75", share)
	}
	if p.DrainShare() != 0 {
		t.Errorf("DrainShare = %v, want 0", p.DrainShare())
	}
}

// TestSpreadPhaseAccounting: spread work divides evenly; every lane is
// active and nothing stalls.
func TestSpreadPhaseAccounting(t *testing.T) {
	prof := NewProfiler(4)
	prof.SpreadPhase("view-decode", 4000)
	p := prof.Profile()
	if err := p.Consistent(); err != nil {
		t.Fatal(err)
	}
	ph := p.Phase("view-decode")
	if ph == nil || ph.ActiveLanes != 4 || ph.Makespan != 1000 {
		t.Fatalf("spread phase wrong: %+v", ph)
	}
	if p.StallShare() != 0 || p.DrainShare() != 0 {
		t.Errorf("spread phase stalls: dep=%v drain=%v", p.StallShare(), p.DrainShare())
	}
}

// TestDrainExcludedFromStallShare: end-of-phase load imbalance is drain,
// not a dependency stall — one lane working while the other idles must
// yield StallShare 0 and DrainShare 0.5.
func TestDrainExcludedFromStallShare(t *testing.T) {
	prof := NewProfiler(2)
	prof.BeginPhase("replay")
	prof.Op(0, "t0.0", 0, 0, 500, false, EdgeNone, "", 500)
	prof.EndPhase(500)
	p := prof.Profile()
	if err := p.Consistent(); err != nil {
		t.Fatal(err)
	}
	if p.StallShare() != 0 {
		t.Errorf("StallShare = %v, want 0 (drain only)", p.StallShare())
	}
	if p.DrainShare() != 0.5 {
		t.Errorf("DrainShare = %v, want 0.5", p.DrainShare())
	}
	if got := p.StallByEdge[EdgeDrain.String()]; got != 500 {
		t.Errorf("drain total = %v, want 500ns", got)
	}
}

// TestNilProfilerSafe: every profiler method must be a no-op on nil — the
// recovery paths call them unconditionally.
func TestNilProfilerSafe(t *testing.T) {
	var p *Profiler
	p.BeginPhase("x")
	p.Op(0, "l", 0, 1, 2, false, EdgeTD, "b", 3)
	p.StallUntil(1, 10, EdgeSerial, "x")
	p.EndPhase(10)
	p.SerialPhase("s", 10)
	p.SpreadPhase("sp", 10)
	if spans, dropped := p.Spans(); spans != nil || dropped != 0 {
		t.Error("nil profiler spans not empty")
	}
	pr := p.Profile()
	if pr.Timeline != 0 || len(pr.Phases) != 0 {
		t.Errorf("nil profiler profile not empty: %+v", pr)
	}
}
