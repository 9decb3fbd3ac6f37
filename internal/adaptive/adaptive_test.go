package adaptive

import (
	"testing"

	"morphstreamr/internal/obs"
)

// sigPar builds structural signals with the given parallelism estimate:
// 1024 operations over chains of length 1024/par.
func sigPar(epoch uint64, par float64) Signals {
	ops := 1024
	mc := int(float64(ops) / par)
	if mc < 1 {
		mc = 1
	}
	return Signals{Epoch: epoch, Ops: ops, MaxChain: mc}
}

func TestInitialPick(t *testing.T) {
	cases := []struct {
		name string
		par  float64
		max  int
		want Strategy
	}{
		{"wide graph saturates", 500, 8, Strategy{Impl: ImplSteal, Workers: 8}},
		{"nearly serial goes sequential", 1.2, 8, Strategy{Impl: ImplSeq, Workers: 1}},
		{"exactly serial goes sequential", 1.0, 8, Strategy{Impl: ImplSeq, Workers: 1}},
		{"four chains get four workers", 4.5, 8, Strategy{Impl: ImplSteal, Workers: 4}},
		{"two chains get two workers", 2.3, 8, Strategy{Impl: ImplSteal, Workers: 2}},
		{"ceiling clamps", 500, 2, Strategy{Impl: ImplSteal, Workers: 2}},
		{"one-worker ceiling is sequential", 500, 1, Strategy{Impl: ImplSeq, Workers: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{MaxWorkers: tc.max})
			got := c.Decide(sigPar(1, tc.par))
			if got != tc.want {
				t.Fatalf("par=%.1f max=%d: got %v, want %v", tc.par, tc.max, got, tc.want)
			}
		})
	}
}

// TestPhaseMorph drives the controller through a parallel phase, a serial
// phase, and back, asserting it morphs once per phase shift (after
// cooldown+patience) and holds steady inside each phase.
func TestPhaseMorph(t *testing.T) {
	c := New(Config{MaxWorkers: 8})
	epoch := uint64(1)
	run := func(par float64, n int) []Strategy {
		var out []Strategy
		for i := 0; i < n; i++ {
			out = append(out, c.Decide(sigPar(epoch, par)))
			epoch++
		}
		return out
	}

	phaseA := run(500, 6)
	for i, s := range phaseA {
		if (s != Strategy{Impl: ImplSteal, Workers: 8}) {
			t.Fatalf("parallel phase epoch %d: got %v", i+1, s)
		}
	}
	phaseB := run(1.1, 8)
	last := phaseB[len(phaseB)-1]
	if (last != Strategy{Impl: ImplSeq, Workers: 1}) {
		t.Fatalf("serial phase did not converge to seq/1: got %v", last)
	}
	// The morph must be damped: the first patience-1+cooldown epochs of the
	// new phase still run the old strategy.
	if (phaseB[0] != Strategy{Impl: ImplSteal, Workers: 8}) {
		t.Fatalf("morphed without patience: first serial-phase decision %v", phaseB[0])
	}
	phaseC := run(500, 8)
	lastC := phaseC[len(phaseC)-1]
	if (lastC != Strategy{Impl: ImplSteal, Workers: 8}) {
		t.Fatalf("did not recover parallel strategy: got %v", lastC)
	}
	// Exactly three recorded decisions: initial, morph to seq, morph back.
	if got := c.Morphs(); got != 3 {
		t.Fatalf("morphs = %d, want 3 (initial + one per phase shift); decisions: %+v",
			got, c.Decisions())
	}
}

// TestBoundaryNoOscillation feeds a signal fluttering across a worker-level
// boundary every epoch; the hysteresis rule must never morph.
func TestBoundaryNoOscillation(t *testing.T) {
	c := New(Config{MaxWorkers: 8})
	first := c.Decide(sigPar(1, 4.5)) // initial: steal/4
	for i := 0; i < 40; i++ {
		par := 3.9 // just below the 4 boundary
		if i%2 == 1 {
			par = 4.1 // just above
		}
		got := c.Decide(sigPar(uint64(i+2), par))
		if got != first {
			t.Fatalf("epoch %d: oscillated from %v to %v on boundary signal", i+2, first, got)
		}
	}
	if got := c.Morphs(); got != 1 {
		t.Fatalf("morphs = %d, want 1 (initial only)", got)
	}
}

// TestDeadband: a drift that stays inside the margin band around the
// current level never becomes a candidate, even when persistent.
func TestDeadband(t *testing.T) {
	c := New(Config{MaxWorkers: 8})
	want := c.Decide(sigPar(1, 4.2))
	if (want != Strategy{Impl: ImplSteal, Workers: 4}) {
		t.Fatalf("initial: got %v", want)
	}
	// 3.7 is below the level-4 threshold (raw target 2) but above
	// 4*(1-margin)=3.4, so the controller holds 4 workers indefinitely.
	for i := 0; i < 20; i++ {
		if got := c.Decide(sigPar(uint64(i+2), 3.7)); got != want {
			t.Fatalf("epoch %d: in-band drift morphed to %v", i+2, got)
		}
	}
	// 3.0 clears the band; after patience the level drops.
	for i := 0; i < 6; i++ {
		c.Decide(sigPar(uint64(30+i), 3.0))
	}
	if got := c.Current(); (got != Strategy{Impl: ImplSteal, Workers: 2}) {
		t.Fatalf("out-of-band drift did not morph: %v", got)
	}
}

func TestForceOverride(t *testing.T) {
	forced := Strategy{Impl: ImplSteal, Workers: 3}
	c := New(Config{MaxWorkers: 8, Force: &forced})
	for i := 0; i < 10; i++ {
		par := 500.0
		if i%2 == 0 {
			par = 1.0
		}
		if got := c.Decide(sigPar(uint64(i+1), par)); got != forced {
			t.Fatalf("epoch %d: force override ignored: %v", i+1, got)
		}
	}
	if got := c.Morphs(); got != 1 {
		t.Fatalf("forced controller recorded %d decisions, want 1", got)
	}
}

// TestTracing: with an observer attached, decisions land in the registry
// (morph counter, worker gauge, provider snapshot) and emit spans.
func TestTracing(t *testing.T) {
	o := obs.NewObserver(1, 128)
	c := New(Config{MaxWorkers: 8, Obs: o})
	c.Decide(sigPar(1, 500))
	for i := 0; i < 6; i++ {
		c.Decide(sigPar(uint64(i+2), 1.0))
	}
	if c.Current().Impl != ImplSeq {
		t.Fatalf("did not morph: %v", c.Current())
	}
	if got := o.Registry().Counter("adaptive.morphs").Value(); got < 2 {
		t.Fatalf("adaptive.morphs = %d, want >= 2", got)
	}
	if got := o.Registry().Gauge("adaptive.workers").Value(); got != 1 {
		t.Fatalf("adaptive.workers gauge = %d, want 1", got)
	}
	events, _ := o.T().Drain()
	found := false
	for _, ev := range events {
		if ev.Cat == CatAdaptive {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %q spans traced", CatAdaptive)
	}
}
