package msr

import (
	"testing"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/fttest"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/scheduler"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// runEpoch executes one epoch of generated events and returns the sealed
// EpochResult the engine would hand the mechanism.
func runEpoch(t *testing.T, gen workload.Generator, st *store.Store, epoch uint64, n, workers int) *ftapi.EpochResult {
	t.Helper()
	events := workload.Batch(gen, n)
	txns := make([]*types.Txn, len(events))
	for i := range events {
		txn := gen.App().Preprocess(events[i])
		txns[i] = &txn
	}
	g := tpg.Build(txns, st.Get)
	if _, err := scheduler.Run(g, st, scheduler.Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	return &ftapi.EpochResult{Epoch: epoch, Events: events, Graph: g, Workers: workers}
}

func slGen(seed int64) workload.Generator {
	p := workload.DefaultSLParams()
	p.Seed, p.Rows, p.AbortRatio, p.MultiPartitionRatio = seed, 512, 0.3, 0.8
	return workload.NewSL(p)
}

// decodeSealed commits the mechanism and decodes what landed on the device.
func decodeSealed(t *testing.T, m *Mech, dev storage.Device, hi uint64) map[uint64]codec.MSRViews {
	t.Helper()
	if err := m.Commit(hi); err != nil {
		t.Fatal(err)
	}
	recs, err := dev.ReadLog(storage.LogFT)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]codec.MSRViews)
	for _, rec := range recs {
		eps, err := ftapi.DecodeGroup(rec.Payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, ep := range eps {
			views, err := codec.DecodeMSR(ep.Payload)
			if err != nil {
				t.Fatal(err)
			}
			out[ep.Epoch] = views
		}
	}
	return out
}

// TestSealRecordsAbortsAndViews: the AbortView must list exactly the
// aborted transactions, and the ParametricView must cover every
// cross-group parametric resolution with the consumed value.
func TestSealRecordsAbortsAndViews(t *testing.T) {
	gen := slGen(1)
	st := store.New(gen.App().Tables())
	dev := storage.NewMem()
	m := New(dev, metrics.NewBytes(), Default())

	ep := runEpoch(t, gen, st, 1, 400, 4)
	m.SealEpoch(ep)
	views := decodeSealed(t, m, dev, 1)[1]

	wantAborted := map[uint64]bool{}
	for _, tn := range ep.Graph.Txns {
		if tn.Aborted() {
			wantAborted[tn.Txn.ID] = true
		}
	}
	if len(wantAborted) == 0 {
		t.Fatal("test needs aborts; raise the abort ratio")
	}
	if len(views.Aborted) != len(wantAborted) {
		t.Fatalf("AbortView has %d ids, want %d", len(views.Aborted), len(wantAborted))
	}
	for _, id := range views.Aborted {
		if !wantAborted[id] {
			t.Fatalf("AbortView lists %d, which committed", id)
		}
	}

	// Every logged parametric entry must carry the value the consumer
	// actually used at runtime.
	index := map[[3]uint64]types.Value{}
	for _, tn := range ep.Graph.Txns {
		for _, opn := range tn.Ops {
			for i, src := range opn.PDSrc {
				if src != nil {
					index[[3]uint64{uint64(opn.Op.Deps[i].Row), uint64(opn.Op.Key.Row), opn.Op.TS}] = opn.DepVals[i]
				}
			}
		}
	}
	if len(views.Parametric) == 0 {
		t.Fatal("no parametric entries logged despite multi-partition transfers")
	}
	for _, e := range views.Parametric {
		want, ok := index[[3]uint64{uint64(e.From.Row), uint64(e.To.Row), e.TS}]
		if !ok {
			t.Fatalf("view entry %v->%v@%d has no matching runtime resolution", e.From, e.To, e.TS)
		}
		if e.Value != want {
			t.Fatalf("view entry %v->%v@%d value %d, runtime consumed %d", e.From, e.To, e.TS, e.Value, want)
		}
	}
}

// TestSelectiveLogsLess: selective logging must record no more parametric
// entries than full logging, and strictly fewer when intra-group
// dependencies exist.
func TestSelectiveLogsLess(t *testing.T) {
	count := func(selective bool) int {
		gen := slGen(3)
		st := store.New(gen.App().Tables())
		dev := storage.NewMem()
		opts := Default()
		opts.SelectiveLogging = selective
		m := New(dev, metrics.NewBytes(), opts)
		ep := runEpoch(t, gen, st, 1, 600, 4)
		m.SealEpoch(ep)
		return len(decodeSealed(t, m, dev, 1)[1].Parametric)
	}
	full, sel := count(false), count(true)
	if sel > full {
		t.Errorf("selective logged %d entries, full logged %d", sel, full)
	}
	if full == 0 {
		t.Fatal("full logging recorded nothing")
	}
	if sel == full {
		t.Logf("selective == full (%d); acceptable but unusual for SL", sel)
	}
}

// TestPartitionChainsDeterministicAndInRange: recovery recomputes the
// runtime partitioning, so it must be a pure function of the graph — the
// second call runs over the scratch the first one left behind.
func TestPartitionChainsDeterministic(t *testing.T) {
	gen := slGen(5)
	st := store.New(gen.App().Tables())
	ep := runEpoch(t, gen, st, 1, 500, 4)
	m := New(storage.NewMem(), metrics.NewBytes(), Default())
	a := m.PartitionChains(ep.Graph, 4)
	b := m.PartitionChains(ep.Graph, 4)
	if len(a) != len(ep.Graph.ChainList) {
		t.Fatalf("partitioning covers %d chains of %d", len(a), len(ep.Graph.ChainList))
	}
	for i, g := range a {
		if g < 0 || g >= 4 {
			t.Fatalf("chain %v in group %d", ep.Graph.ChainList[i].Key, g)
		}
		if b[i] != g {
			t.Fatalf("PartitionChains nondeterministic at %v", ep.Graph.ChainList[i].Key)
		}
	}
}

// TestRecoverMissingViewsFails: recovery must fail loudly, not silently
// produce wrong state, when a committed epoch's views are absent.
func TestRecoverMissingViewsFails(t *testing.T) {
	gen := slGen(7)
	dev := storage.NewMem()
	m := New(dev, metrics.NewBytes(), Default())
	events := workload.Batch(gen, 50)
	// Inputs exist for epoch 1 and the FT log claims epoch 1 committed,
	// but the group payload holds views for epoch 2 instead.
	bogus := ftapi.EncodeGroup([]ftapi.EpochPayload{{Epoch: 2, Payload: codec.EncodeMSR(codec.MSRViews{})}})
	if err := dev.Append(storage.LogFT, storage.Record{Epoch: 2, Payload: bogus}); err != nil {
		t.Fatal(err)
	}
	st := store.New(gen.App().Tables())
	var bd metrics.RecoveryBreakdown
	_, err := m.Recover(&ftapi.RecoveryContext{
		App: gen.App(), Store: st, Device: dev, Workers: 2,
		Inputs:    []ftapi.EpochEvents{{Epoch: 1, Events: events}},
		Execute:   fttest.Sequential(st),
		Breakdown: &bd,
	})
	if err == nil {
		t.Fatal("recovery with missing views must fail")
	}
}

func TestOptionsDefault(t *testing.T) {
	d := Default()
	if !d.SelectiveLogging || !d.OpRestructure || !d.AbortPushdown || !d.OptTaskAssign {
		t.Errorf("Default() = %+v; every optimization should be on", d)
	}
	m := New(storage.NewMem(), metrics.NewBytes(), d)
	if m.Kind() != ftapi.MSR || m.Options() != d {
		t.Error("mechanism identity wrong")
	}
}

func TestCommitClearsBuffer(t *testing.T) {
	gen := slGen(9)
	st := store.New(gen.App().Tables())
	dev := storage.NewMem()
	m := New(dev, metrics.NewBytes(), Default())
	m.SealEpoch(runEpoch(t, gen, st, 1, 100, 2))
	if err := m.Commit(1); err != nil {
		t.Fatal(err)
	}
	before := dev.BytesWritten()[storage.LogFT]
	if before == 0 {
		t.Fatal("commit wrote nothing")
	}
	// A second commit with an empty buffer must write nothing.
	if err := m.Commit(2); err != nil {
		t.Fatal(err)
	}
	if dev.BytesWritten()[storage.LogFT] != before {
		t.Error("empty commit appended a record")
	}
}
