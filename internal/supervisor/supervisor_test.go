package supervisor

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"morphstreamr/internal/adaptive"
	"morphstreamr/internal/core"
	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

const (
	tEpochs    = 8
	tEpochSize = 16
	tWorkers   = 2
	tCommit    = 2
	tSnapshot  = 4
)

// tShape is the run shape every test run uses.
var tShape = types.RunShape{Workers: tWorkers, CommitEvery: tCommit, SnapshotEvery: tSnapshot}

// pipeShape is tShape with epoch pipelining on.
func pipeShape() types.RunShape {
	s := tShape
	s.Pipeline = true
	return s
}

// fixedBatches pre-generates the whole stream so the Source is rewindable.
func fixedBatches(seed int64) (types.App, [][]types.Event) {
	p := workload.DefaultSLParams()
	p.Rows, p.Seed, p.AbortRatio = 256, seed, 0.15
	gen := workload.NewSL(p)
	batches := make([][]types.Event, tEpochs)
	for i := range batches {
		batches[i] = workload.Batch(gen, tEpochSize)
	}
	return gen.App(), batches
}

// referenceRun processes the same stream on a clean un-supervised engine
// and returns its delivered outputs and final state — what a supervised
// run, healed or not, must reproduce.
func referenceRun(t *testing.T, app types.App, batches [][]types.Event, kind ftapi.Kind) (*engine.Engine, []types.Output) {
	t.Helper()
	dev := storage.NewMem()
	eng, err := engine.New(engine.Config{
		App: app, Device: dev,
		Mechanism: core.NewMechanism(kind, dev, metrics.NewBytes(), msr.Default()),
		RunShape:  tShape,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := eng.ProcessEpoch(b); err != nil {
			t.Fatal(err)
		}
	}
	return eng, eng.Delivered()
}

func mechFactory(kind ftapi.Kind) func(storage.Device, *metrics.Bytes) ftapi.Mechanism {
	return func(dev storage.Device, bytes *metrics.Bytes) ftapi.Mechanism {
		return core.NewMechanism(kind, dev, bytes, msr.Default())
	}
}

func checkSameOutputs(t *testing.T, got, want []types.Output) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("delivered %d outputs, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		same := g.EventSeq == w.EventSeq && g.Kind == w.Kind && len(g.Vals) == len(w.Vals)
		if same {
			for j := range g.Vals {
				if g.Vals[j] != w.Vals[j] {
					same = false
					break
				}
			}
		}
		if !same {
			t.Fatalf("output %d = %+v, want %+v", i, g, w)
		}
	}
}

func checkSameState(t *testing.T, app types.App, got, want *engine.Engine) {
	t.Helper()
	bad := 0
	for _, spec := range app.Tables() {
		for row := uint32(0); row < spec.Rows; row++ {
			k := types.Key{Table: spec.ID, Row: row}
			if g, w := got.Store().Get(k), want.Store().Get(k); g != w {
				bad++
				if bad <= 3 {
					t.Errorf("%v: supervised=%d reference=%d", k, g, w)
				}
			}
		}
	}
	if bad > 3 {
		t.Errorf("... and %d more state mismatches", bad-3)
	}
}

func TestCleanRunStops(t *testing.T) {
	app, batches := fixedBatches(1)
	ref, wantOuts := referenceRun(t, app, batches, ftapi.WAL)
	base := runtime.NumGoroutine()
	sup, err := New(Config{
		App: app, Device: storage.NewMem(),
		Mechanism: mechFactory(ftapi.WAL),
		Source:    types.BatchSource(batches),
		RunShape:  tShape,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(); err != nil {
		t.Fatal(err)
	}
	if sup.State() != Stopped {
		t.Fatalf("state = %v, want stopped", sup.State())
	}
	if sup.Recoveries() != 0 {
		t.Fatalf("clean run performed %d recoveries", sup.Recoveries())
	}
	checkSameOutputs(t, sup.Outputs(), wantOuts)
	checkSameState(t, app, sup.Engine(), ref)

	// The last incarnation ran on the pool (its controller's first pick for
	// this stream) and the stopped supervisor closed it: no worker outlives
	// Run.
	if first := sup.Engine().Adaptive().Decisions()[0].To; first.Impl != adaptive.ImplSteal {
		t.Fatalf("premise: the engine never started a pool (first decision %v)", first)
	}
	// (The drive goroutine may still be returning; the workers are gone
	// the moment Close returns.)
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after a stopped run, %d before it: the engine's pool leaked", got, base)
	}
}

// TestTransientStormAbsorbed: a storm shorter than the retry budget heals
// at the retry layer — zero recoveries, no incident, same outputs.
func TestTransientStormAbsorbed(t *testing.T) {
	app, batches := fixedBatches(2)
	ref, wantOuts := referenceRun(t, app, batches, ftapi.WAL)
	flaky := storage.NewFlaky(storage.NewMem())
	flaky.AddStorm(5, 3)
	var degradedSeen atomic.Bool
	sup, err := New(Config{
		App: app, Device: flaky,
		Mechanism: mechFactory(ftapi.WAL),
		Source:    types.BatchSource(batches),
		RunShape:  tShape,
		Retry: storage.RetryPolicy{
			MaxAttempts: 6,
			BaseBackoff: 100 * time.Microsecond,
			OnRetry:     func(string, int, error) { degradedSeen.Store(true) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(); err != nil {
		t.Fatal(err)
	}
	if sup.Recoveries() != 0 {
		t.Fatalf("storm triggered %d recoveries, want 0 (retry should absorb)", sup.Recoveries())
	}
	if !degradedSeen.Load() {
		t.Fatal("retry callback never fired; storm not exercised")
	}
	st := sup.RetryStats()
	if st.Absorbed == 0 || st.Retries < 3 {
		t.Fatalf("retry stats = %+v", st)
	}
	if len(sup.Health().Incidents()) != 0 {
		t.Fatalf("storm logged incidents: %+v", sup.Health().Incidents())
	}
	checkSameOutputs(t, sup.Outputs(), wantOuts)
	checkSameState(t, app, sup.Engine(), ref)
}

// TestFatalFaultHealsOnce: a fatal device fault triggers exactly one
// in-process recovery, after which the stream completes with oracle-equal
// state and exactly-once outputs.
func TestFatalFaultHealsOnce(t *testing.T) {
	for _, kind := range []ftapi.Kind{ftapi.CKPT, ftapi.WAL, ftapi.DL, ftapi.LV, ftapi.MSR} {
		t.Run(kind.String(), func(t *testing.T) {
			app, batches := fixedBatches(3)
			ref, wantOuts := referenceRun(t, app, batches, kind)
			flaky := storage.NewFlaky(storage.NewMem())
			flaky.AddOutage(6, 1)
			sup, err := New(Config{
				App: app, Device: flaky,
				Mechanism: mechFactory(kind),
				Source:    types.BatchSource(batches),
				RunShape:  tShape,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sup.Run(); err != nil {
				t.Fatal(err)
			}
			if sup.Recoveries() != 1 {
				t.Fatalf("recoveries = %d, want exactly 1", sup.Recoveries())
			}
			incs := sup.Health().Incidents()
			if len(incs) != 1 || !incs[0].Healed || incs[0].Cause != "io-fatal" {
				t.Fatalf("incidents = %+v", incs)
			}
			if incs[0].MTTR <= 0 {
				t.Fatalf("MTTR not recorded: %+v", incs[0])
			}
			checkSameOutputs(t, sup.Outputs(), wantOuts)
			checkSameState(t, app, sup.Engine(), ref)
		})
	}
}

// TestPanicHeals: a mid-epoch operation panic is confined, detected, and
// healed in-process.
func TestPanicHeals(t *testing.T) {
	app, batches := fixedBatches(4)
	ref, wantOuts := referenceRun(t, app, batches, ftapi.DL)
	var fired atomic.Int64
	var armed atomic.Bool
	armed.Store(true)
	sup, err := New(Config{
		App: app, Device: storage.NewMem(),
		Mechanism: mechFactory(ftapi.DL),
		Source:    types.BatchSource(batches),
		RunShape:  tShape,
		FireHook: func(n *tpg.OpNode) {
			// One-shot: panic mid-stream, well past the first commit.
			if fired.Add(1) == 3*tEpochSize && armed.CompareAndSwap(true, false) {
				panic("chaos: op panic")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(); err != nil {
		t.Fatal(err)
	}
	if sup.Recoveries() != 1 {
		t.Fatalf("recoveries = %d, want 1", sup.Recoveries())
	}
	incs := sup.Health().Incidents()
	if len(incs) != 1 || incs[0].Cause != "panic" || !incs[0].Healed {
		t.Fatalf("incidents = %+v", incs)
	}
	checkSameOutputs(t, sup.Outputs(), wantOuts)
	checkSameState(t, app, sup.Engine(), ref)
}

// TestStallWatchdog (satellite: scheduler stall detection): a deliberately
// wedged worker — an injected infinite-loop op parked on a channel — is
// detected by the watchdog within the configured timeout, the cancellation
// hook un-wedges it, and the supervised run heals and completes.
func TestStallWatchdog(t *testing.T) {
	app, batches := fixedBatches(5)
	ref, wantOuts := referenceRun(t, app, batches, ftapi.WAL)

	wedge := make(chan struct{})
	var fired atomic.Int64
	var armed atomic.Bool
	armed.Store(true)
	const stallTimeout = 250 * time.Millisecond
	started := time.Now()
	sup, err := New(Config{
		App: app, Device: storage.NewMem(),
		Mechanism:    mechFactory(ftapi.WAL),
		Source:       types.BatchSource(batches),
		RunShape:     tShape,
		StallTimeout: stallTimeout,
		FireHook: func(n *tpg.OpNode) {
			if fired.Add(1) == 3*tEpochSize && armed.CompareAndSwap(true, false) {
				<-wedge // wedged until the supervisor cancels
			}
		},
		OnStall: func() { close(wedge) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(); err != nil {
		t.Fatal(err)
	}
	detected := time.Since(started)
	if sup.Recoveries() != 1 {
		t.Fatalf("recoveries = %d, want 1", sup.Recoveries())
	}
	incs := sup.Health().Incidents()
	if len(incs) != 1 || incs[0].Cause != "stall" || !incs[0].Healed {
		t.Fatalf("incidents = %+v", incs)
	}
	if incs[0].Detection < stallTimeout {
		t.Fatalf("stall detected after %v, below the %v timeout", incs[0].Detection, stallTimeout)
	}
	// The watchdog fired within the configured timeout plus slack — it did
	// not wait for the wedged op to release on its own (it never would).
	if detected > 20*stallTimeout {
		t.Fatalf("whole run took %v; watchdog too slow for a %v timeout", detected, stallTimeout)
	}
	checkSameOutputs(t, sup.Outputs(), wantOuts)
	checkSameState(t, app, sup.Engine(), ref)
}

// TestRecoveryBudget: a fault that recurs after every heal exhausts
// MaxRecoveries and Run surfaces ErrRecoveryBudget instead of looping.
func TestRecoveryBudget(t *testing.T) {
	app, batches := fixedBatches(6)
	sup, err := New(Config{
		App: app, Device: storage.NewMem(),
		Mechanism:     mechFactory(ftapi.WAL),
		Source:        types.BatchSource(batches),
		RunShape:      tShape,
		MaxRecoveries: 2,
		FireHook:      func(n *tpg.OpNode) { panic("chaos: persistent fault") },
	})
	if err != nil {
		t.Fatal(err)
	}
	err = sup.Run()
	if !errors.Is(err, ErrRecoveryBudget) {
		t.Fatalf("want ErrRecoveryBudget, got %v", err)
	}
	if sup.State() != Failed {
		t.Fatalf("state = %v, want failed", sup.State())
	}
	if sup.Recoveries() != 2 {
		t.Fatalf("recoveries = %d, want 2", sup.Recoveries())
	}
}

// TestNATRejected: native execution has nothing to recover from.
func TestNATRejected(t *testing.T) {
	app, batches := fixedBatches(7)
	_, err := New(Config{
		App: app, Device: storage.NewMem(),
		Mechanism: func(dev storage.Device, bytes *metrics.Bytes) ftapi.Mechanism {
			return core.NewMechanism(core.NAT, dev, bytes, msr.Default())
		},
		Source: types.BatchSource(batches),
	})
	if err == nil {
		t.Fatal("NAT mechanism accepted")
	}
}

// TestPipelinedSupervision: the same heal paths work when the engine runs
// its pipelined epoch overlap.
func TestPipelinedSupervision(t *testing.T) {
	app, batches := fixedBatches(8)
	ref, wantOuts := referenceRun(t, app, batches, ftapi.MSR)
	flaky := storage.NewFlaky(storage.NewMem())
	flaky.AddOutage(7, 1)
	sup, err := New(Config{
		App: app, Device: flaky,
		Mechanism: mechFactory(ftapi.MSR),
		Source:    types.BatchSource(batches),
		RunShape:  pipeShape(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(); err != nil {
		t.Fatal(err)
	}
	if sup.Recoveries() != 1 {
		t.Fatalf("recoveries = %d, want 1", sup.Recoveries())
	}
	checkSameOutputs(t, sup.Outputs(), wantOuts)
	checkSameState(t, app, sup.Engine(), ref)
}
