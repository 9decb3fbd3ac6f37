package supervisor

import (
	"errors"
	"testing"

	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/scheduler"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
)

// TestRecoveryBudgetPreservesCauseIdentity: the terminal budget error wraps
// the last failure with %w, so callers can still errors.Is the root cause
// (here the confined panic sentinel) through ErrRecoveryBudget.
func TestRecoveryBudgetPreservesCauseIdentity(t *testing.T) {
	app, batches := fixedBatches(31)
	sup, err := New(Config{
		App: app, Device: storage.NewMem(),
		Mechanism:     mechFactory(ftapi.WAL),
		Source:        types.BatchSource(batches),
		RunShape:      tShape,
		MaxRecoveries: 1,
		FireHook:      func(n *tpg.OpNode) { panic("chaos: persistent fault") },
	})
	if err != nil {
		t.Fatal(err)
	}
	err = sup.Run()
	if !errors.Is(err, ErrRecoveryBudget) {
		t.Fatalf("want ErrRecoveryBudget, got %v", err)
	}
	if !errors.Is(err, scheduler.ErrOpPanic) {
		t.Fatalf("budget error lost the root cause identity: %v", err)
	}
	if engine.Classify(err) != "panic" {
		t.Fatalf("budget error classifies as %q, want panic: %v", engine.Classify(err), err)
	}
}

// TestOnStateObservesTransitions: the observer's timeline sees the
// lifecycle as it happens — Recovering during a heal, Running when the heal
// completes, Stopped at the end — and the supervisor.to_* counters agree
// with it. (The initial Running is the construction state, not a
// transition, so neither reports it.)
func TestOnStateObservesTransitions(t *testing.T) {
	app, batches := fixedBatches(32)
	flaky := storage.NewFlaky(storage.NewMem())
	flaky.AddOutage(6, 1)
	o := obs.NewObserver(1, 64)
	sup, err := New(Config{
		App: app, Device: flaky,
		Mechanism: mechFactory(ftapi.WAL),
		Source:    types.BatchSource(batches),
		RunShape:  tShape,
		Obs:       o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(); err != nil {
		t.Fatal(err)
	}
	var seen []string
	for _, ev := range o.Timeline().Events() {
		if ev.Source == "supervisor" && ev.Kind == "state" {
			seen = append(seen, ev.Detail)
		}
	}
	if len(seen) == 0 || seen[len(seen)-1] != Stopped.String() {
		t.Fatalf("transitions = %v, want Stopped last", seen)
	}
	var recovering, running bool
	for i, st := range seen {
		if st == Recovering.String() {
			recovering = true
		}
		if st == Running.String() && recovering && i < len(seen)-1 {
			running = true // back to Running after the heal
		}
	}
	if !recovering {
		t.Fatalf("heal ran but the timeline never saw Recovering: %v", seen)
	}
	if !running {
		t.Fatalf("heal never returned to Running before Stopped: %v", seen)
	}
	reg := o.Registry()
	for _, st := range []State{Recovering, Running, Stopped} {
		n := 0
		for _, s := range seen {
			if s == st.String() {
				n++
			}
		}
		if got := reg.Counter("supervisor.to_" + st.String()).Value(); got != int64(n) {
			t.Fatalf("supervisor.to_%s = %d, timeline saw %d: %v", st, got, n, seen)
		}
	}
}
