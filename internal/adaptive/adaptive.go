// Package adaptive implements the per-epoch scheduling controller: the
// MorphStream-style feedback loop that picks an execution strategy for
// every epoch instead of fixing one at startup.
//
// The controller observes two kinds of signals. Structural signals come
// from the epoch's task precedence graph before it executes — operation
// count and the longest chain (the structural critical path) — and are pure
// functions of the input stream, so every incarnation of an engine derives
// the same values for the same epoch. The feedback signal is the wall time
// the previous epoch took under the strategy that ran it, and carries the
// timing noise of the host.
//
// Strategy decisions (worker count, work-stealing vs sequential execution)
// may use both kinds: they change how an epoch is explored but never what it
// writes, because the engine re-labels chains with the canonical
// partitioning before sealing (see engine docs).
//
// Every morph is hysteresis-damped: a candidate strategy must win for
// patience consecutive epochs, a fresh morph starts a cooldown, and worker
// levels move only when the parallelism estimate clears a dead-band margin
// around the current level — a signal sitting on a decision boundary
// flutters the candidate, never the strategy.
//
// Structure alone cannot answer one question: whether the per-operation
// grain on this machine makes parallel coordination pay at all. A graph
// with thousands of independent chains still executes fastest sequentially
// when each operation costs tens of nanoseconds and the pool's deque and
// park traffic costs more. The controller settles it empirically with
// grain probes: once the current strategy is stable it occasionally spends
// a single epoch on the other side of the sequential/parallel divide,
// folds the measured ns/op into a per-side EWMA, and morphs only when the
// probed side wins by probeMargin. Probes re-arm every probeEvery epochs
// in both directions, so a stream whose operations grow heavier climbs
// back onto the worker ladder. Probing requires wall feedback — a
// controller that is never fed measurements never probes.
package adaptive

import (
	"fmt"
	"sync"
	"time"

	"morphstreamr/internal/obs"
)

// Execution strategies the controller morphs between. ImplSteal is the
// work-stealing pool (scheduler.Pool); ImplSeq is the sequential executor,
// the right choice when the graph is one long chain and any pool would just
// spin.
const (
	ImplSteal = "steal"
	ImplSeq   = "seq"
)

// Strategy is one executable scheduling choice.
type Strategy struct {
	// Impl selects the executor: ImplSteal or ImplSeq.
	Impl string
	// Workers is the parallelism degree (1 for ImplSeq).
	Workers int
}

func (s Strategy) String() string { return fmt.Sprintf("%s/w%d", s.Impl, s.Workers) }

// Signals is the pre-execution view of one epoch: the graph's structure.
// All fields are deterministic functions of the input stream.
type Signals struct {
	// Epoch is the epoch number (for tracing).
	Epoch uint64
	// Ops is the graph's operation count.
	Ops int
	// MaxChain is the longest chain's operation count — the structural
	// critical path of a TPG whose only mandatory ordering is temporal.
	// Ops/MaxChain bounds the useful parallelism from below exactly the way
	// vtime's CPRatio bounds it from measurement.
	MaxChain int
}

// Par returns the structural parallelism estimate Ops/MaxChain.
func (s Signals) Par() float64 {
	if s.MaxChain <= 0 {
		return float64(s.Ops)
	}
	return float64(s.Ops) / float64(s.MaxChain)
}

// Feedback is the post-execution view of one epoch: what the strategy that
// ran it actually cost.
type Feedback struct {
	Epoch    uint64
	Strategy Strategy
	Wall     time.Duration
	Ops      int
}

// Decision records one strategy morph (or the initial choice).
type Decision struct {
	Epoch  uint64
	From   Strategy
	To     Strategy
	Par    float64
	Reason string
}

// The hysteresis and grain-probe constants.
const (
	// margin is the dead-band around the current worker level: the
	// parallelism estimate must clear level*(1±margin) before a resize
	// becomes a candidate.
	margin = 0.15
	// patience is how many consecutive epochs a candidate strategy must
	// persist before the controller morphs to it.
	patience = 2
	// cooldown is how many epochs after a morph the controller holds still,
	// so the new strategy's feedback is measured before it can be revised.
	cooldown = 2
	// probeEvery is how many epochs between grain probes: single-epoch
	// excursions across the sequential/parallel divide that measure what
	// structure cannot — whether this machine's per-operation grain makes
	// parallel coordination pay.
	probeEvery = 8
	// probeMargin is the measured ns/op advantage the probed side must show
	// before the controller morphs to it.
	probeMargin = 0.10
)

// Config configures one controller.
type Config struct {
	// MaxWorkers is the parallelism ceiling — the run shape's Workers.
	// Zero means 1.
	MaxWorkers int
	// Force, when non-nil, pins every decision to the given strategy. Tests
	// and A/B harnesses use it to hold the engine in a known configuration
	// while keeping the controller's tracing live.
	Force *Strategy
	// Obs receives a span per morph and the controller's registry series
	// (adaptive.morphs counter, adaptive.workers gauge, ...). Nil disables
	// tracing.
	Obs *obs.Observer
}

// CatAdaptive is the span category of controller morphs.
const CatAdaptive = "adaptive"

// Controller drives one engine's strategy. It is not goroutine-safe: the
// engine calls it from its processing goroutine only (the registry
// provider reads a mutex-guarded snapshot).
type Controller struct {
	cfg    Config
	levels []int // worker ladder: 1, 2, 4, ... MaxWorkers

	started bool
	cur     Strategy

	// pending is the persistent-candidate tracker of the hysteresis rule.
	pending      Strategy
	pendingRuns  int
	cooldownLeft int

	// Measured grain: EWMA ns/op on each side of the sequential/parallel
	// divide, with sample counts. Fed only by Feedback calls that carry a
	// wall time.
	seqNs, parNs float64
	seqN, parN   int

	// Probe state: sinceProbe counts epochs since the last probe (or start),
	// probing marks that the strategy returned by the previous Decide was a
	// probe excursion whose verdict the next Decide applies.
	sinceProbe int
	probing    bool
	probed     Strategy
	probes     int

	// decisions is a bounded ring of morphs, newest last.
	mu        sync.Mutex
	decisions []Decision
	morphs    int

	// registry series (nil when Obs is nil).
	morphCtr *obs.Counter
	probeCtr *obs.Counter
	workersG *obs.Gauge
}

// decisionRing bounds the kept decision history.
const decisionRing = 64

// New creates a controller.
func New(cfg Config) *Controller {
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = 1
	}
	c := &Controller{cfg: cfg}
	for w := 1; w < cfg.MaxWorkers; w *= 2 {
		c.levels = append(c.levels, w)
	}
	c.levels = append(c.levels, cfg.MaxWorkers)
	if reg := cfg.Obs.Registry(); reg != nil {
		c.morphCtr = reg.Counter("adaptive.morphs")
		c.probeCtr = reg.Counter("adaptive.probes")
		c.workersG = reg.Gauge("adaptive.workers")
		reg.Attach("adaptive", obs.ProviderFunc(c.view))
	}
	return c
}

// view is the registry provider snapshot.
func (c *Controller) view() map[string]any {
	c.mu.Lock()
	defer c.mu.Unlock()
	return map[string]any{
		"impl":    c.cur.Impl,
		"workers": c.cur.Workers,
		"morphs":  c.morphs,
		"probes":  c.probes,
	}
}

// Decide returns the strategy for the epoch described by sig. The first
// call chooses directly from structure (an initial pick, not a morph);
// later calls only change strategy under the hysteresis rule.
func (c *Controller) Decide(sig Signals) Strategy {
	if f := c.cfg.Force; f != nil {
		forced := *f
		if forced.Workers <= 0 {
			forced.Workers = 1
		}
		if !c.started {
			c.started = true
			c.record(sig, c.cur, forced, "forced")
		}
		c.cur = forced
		return forced
	}
	if c.probing {
		// The previous epoch was a probe excursion; apply its verdict before
		// anything else. A decisive measurement morphs without patience — the
		// probe itself was the evidence.
		c.probing = false
		c.sinceProbe = 0
		if to, reason, ok := c.probeVerdict(); ok {
			c.morph(sig, to, reason)
			return c.cur
		}
	}
	want := c.candidate(sig)
	if !c.started {
		c.started = true
		c.cooldownLeft = cooldown
		c.record(sig, c.cur, want, "initial")
		c.cur = want
		return c.cur
	}
	c.sinceProbe++
	if c.cooldownLeft > 0 {
		c.cooldownLeft--
		c.pendingRuns = 0
		return c.cur
	}
	if want == c.cur {
		c.pendingRuns = 0
		if p, ok := c.probeCandidate(sig); ok {
			c.probing, c.probed = true, p
			c.mu.Lock()
			c.probes++
			c.mu.Unlock()
			c.probeCtr.Inc()
			return p
		}
		return c.cur
	}
	// A differing candidate must persist: a boundary signal that flutters
	// between candidates resets the count and never morphs.
	if want != c.pending {
		c.pending = want
		c.pendingRuns = 1
		return c.cur
	}
	c.pendingRuns++
	if c.pendingRuns < patience {
		return c.cur
	}
	c.morph(sig, want, fmt.Sprintf("par=%.1f", sig.Par()))
	return c.cur
}

// candidate computes the raw (un-damped) strategy for one epoch.
func (c *Controller) candidate(sig Signals) Strategy {
	par := sig.Par()
	w := c.targetWorkers(par)
	if w <= 1 {
		return Strategy{Impl: ImplSeq, Workers: 1}
	}
	// Measured grain verdict: however wide the graph, this machine executes
	// these operations faster without coordination. Reverse probes keep the
	// verdict honest — see probeCandidate.
	if c.grainSeq() {
		return Strategy{Impl: ImplSeq, Workers: 1}
	}
	return Strategy{Impl: ImplSteal, Workers: w}
}

// grainSeq reports whether the measured ns/op says sequential execution
// decisively beats the parallel schedulers. False until both sides have
// been measured.
func (c *Controller) grainSeq() bool {
	return c.seqN > 0 && c.parN > 0 && c.seqNs < c.parNs*(1-probeMargin)
}

// probeCandidate decides whether the next epoch should be a grain probe,
// and with what strategy. Called only when the hysteresis state is stable
// (no cooldown, candidate == current).
func (c *Controller) probeCandidate(sig Signals) (Strategy, bool) {
	if c.cur.Impl != ImplSeq {
		if c.parN == 0 {
			return Strategy{}, false // nothing measured yet to compare against
		}
		// The first sequential probe fires as soon as the parallel side has a
		// measurement and the sequential side has none; afterwards probes
		// re-arm every probeEvery epochs.
		if (c.seqN == 0 && c.sinceProbe >= 2) || c.sinceProbe >= probeEvery {
			return Strategy{Impl: ImplSeq, Workers: 1}, true
		}
		return Strategy{}, false
	}
	// Sequential side: re-probe the structural parallel choice, so a stream
	// whose operations grow heavier climbs back onto the worker ladder. Only
	// when structure actually wants parallelism — probing a serial graph
	// with a pool would measure nothing but overhead.
	if c.seqN == 0 || c.sinceProbe < probeEvery {
		return Strategy{}, false
	}
	if w := c.ladder(sig.Par()); w > 1 {
		return Strategy{Impl: ImplSteal, Workers: w}, true
	}
	return Strategy{}, false
}

// probeVerdict compares the probe's measurement against the incumbent
// side's EWMA and returns the morph it justifies, if any.
func (c *Controller) probeVerdict() (Strategy, string, bool) {
	if c.seqN == 0 || c.parN == 0 {
		return Strategy{}, "", false
	}
	m := 1 - probeMargin
	if c.probed.Impl == ImplSeq && c.cur.Impl != ImplSeq && c.seqNs < c.parNs*m {
		return c.probed, fmt.Sprintf("grain: seq %.0fns/op < par %.0fns/op", c.seqNs, c.parNs), true
	}
	if c.probed.Impl != ImplSeq && c.cur.Impl == ImplSeq && c.parNs < c.seqNs*m {
		return c.probed, fmt.Sprintf("grain: par %.0fns/op < seq %.0fns/op", c.parNs, c.seqNs), true
	}
	return Strategy{}, "", false
}

// ladder maps the parallelism estimate onto the worker ladder, no
// dead-band applied.
func (c *Controller) ladder(par float64) int {
	raw := 1
	for _, lvl := range c.levels {
		if par >= float64(lvl) {
			raw = lvl
		}
	}
	return raw
}

// targetWorkers maps the parallelism estimate onto the worker ladder with
// a dead-band around the current level.
func (c *Controller) targetWorkers(par float64) int {
	raw := c.ladder(par)
	if !c.started {
		return raw
	}
	cur := c.cur.Workers
	if raw > cur && par < float64(raw)*(1+margin) {
		return cur // above the level boundary, but not clear of the band
	}
	if raw < cur && par > float64(cur)*(1-margin) {
		return cur // below the current level, but still inside its band
	}
	return raw
}

// Feedback reports the measured cost of the epoch just executed.
func (c *Controller) Feedback(fb Feedback) {
	if fb.Wall > 0 && fb.Ops > 0 {
		ns := float64(fb.Wall.Nanoseconds()) / float64(fb.Ops)
		if fb.Strategy.Impl == ImplSeq {
			if c.seqN == 0 {
				c.seqNs = ns
			} else {
				c.seqNs = 0.5*c.seqNs + 0.5*ns
			}
			c.seqN++
		} else {
			if c.parN == 0 {
				c.parNs = ns
			} else {
				c.parNs = 0.5*c.parNs + 0.5*ns
			}
			c.parN++
		}
	}
}

// morph switches the live strategy and records the decision.
func (c *Controller) morph(sig Signals, to Strategy, reason string) {
	from := c.cur
	c.cur = to
	c.pendingRuns = 0
	c.cooldownLeft = cooldown
	c.record(sig, from, to, reason)
}

// record traces one decision (initial pick, forced pin, or morph).
func (c *Controller) record(sig Signals, from, to Strategy, reason string) {
	c.mu.Lock()
	c.decisions = append(c.decisions, Decision{
		Epoch: sig.Epoch, From: from, To: to, Par: sig.Par(), Reason: reason,
	})
	if len(c.decisions) > decisionRing {
		c.decisions = c.decisions[len(c.decisions)-decisionRing:]
	}
	c.morphs++
	c.mu.Unlock()
	c.morphCtr.Inc()
	c.workersG.Set(int64(to.Workers))
	sp := c.cfg.Obs.Begin(0, CatAdaptive, fmt.Sprintf("morph %s", to), sig.Epoch)
	sp.End()
}

// MaxWorkers returns the parallelism ceiling no decision exceeds.
func (c *Controller) MaxWorkers() int { return c.cfg.MaxWorkers }

// Current returns the live strategy (the zero Strategy before any Decide).
func (c *Controller) Current() Strategy { return c.cur }

// Morphs returns how many decisions (including the initial pick) have been
// recorded.
func (c *Controller) Morphs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.morphs
}

// Decisions returns a copy of the recent decision history, oldest first.
func (c *Controller) Decisions() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Decision, len(c.decisions))
	copy(out, c.decisions)
	return out
}
