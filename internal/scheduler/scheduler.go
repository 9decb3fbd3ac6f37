// Package scheduler executes a task precedence graph.
//
// The parallel scheduler follows MorphStream's TxnScheduler shape — key
// chains are assigned to workers for data locality, ready operations gate
// on dependency counters — but drains the graph through lock-free
// work-stealing instead of per-worker channels: each worker owns a
// Chase-Lev ring deque of ready nodes, executes its own bottom (LIFO,
// cache-hot) and steals from other workers' tops when idle, so load
// imbalance self-corrects without any global lock. Operation completion is
// an atomic countdown; the worker that retires the last operation flips a
// one-shot done flag and wakes everyone. Per-worker clocks split elapsed
// time into explore (scheduling), execute (state accesses), abort
// (handling aborted transactions), and wait (idle: failed steals and
// parking) — the quantities stacked in Figure 11.
//
// The sequential executor runs the graph on one thread in timestamp order;
// it is the redo engine of WAL recovery and the one-core base case of the
// scalability study.
//
// An engine chooses between the two through an Executor: the adaptive
// controller picks sequential or pool execution, and the pool's worker
// count, for every epoch.
package scheduler

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"morphstreamr/internal/metrics"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
)

// ErrOpPanic is wrapped by a run's error when an operation panicked, on the
// pool and, through Executor, on the sequential path. The panic is confined
// to the failing epoch: the run terminates cleanly and returns instead of
// crashing the process, the engine fails the epoch, and the shard group's
// heal recovers it.
var ErrOpPanic = errors.New("scheduler: operation panicked")

// Options configures a parallel run.
type Options struct {
	// Workers is the degree of parallelism; zero means 1, the same
	// zero-value rule as types.RunShape (the scheduler historically
	// defaulted to GOMAXPROCS here, a divergence the unified run-shape
	// removed: parallelism is always an explicit decision).
	Workers int
	// Assign maps a chain to its owning worker in [0, Workers). Nil uses
	// a hash of the chain's key, the engine's default partitioning. The
	// assignment seeds the initial work distribution and labels chains for
	// the logging mechanisms; stealing rebalances execution at runtime.
	Assign func(*tpg.Chain) int
	// Timing enables per-operation clock accounting. Leave it off on the
	// runtime hot path; recovery turns it on to produce breakdowns.
	Timing bool
	// FireHook, when non-nil, runs before every operation fires on the
	// parallel path. The scheduler's own tests use it to inject panics at a
	// chosen operation and to count fired operations; nil costs nothing on
	// the hot path.
	FireHook func(*tpg.OpNode)
	// Stats, when non-nil, receives steal/park/stall/panic counters
	// (atomic increments off the fast path: only on steals, parking, and
	// termination events). Nil costs a pointer check.
	Stats *obs.SchedStats
}

// Run executes every node of the graph on a transient Pool of opt.Workers
// workers and returns the per-worker clocks (all zero unless Timing is set).
// Callers that execute epoch after epoch keep a Pool (or an Executor)
// instead and skip the per-call spawn.
func Run(g *tpg.Graph, st *store.Store, opt Options) ([]metrics.WorkerClock, error) {
	p := NewPool(opt.Workers, nil)
	defer p.Close()
	return p.Run(g, st, opt)
}

// assignOwners labels every chain with its owning worker in [0, workers).
// A nil assign uses the default key-hash partitioning.
func assignOwners(g *tpg.Graph, workers int, assign func(*tpg.Chain) int) error {
	if assign == nil {
		assign = HashAssign(workers)
	}
	for _, ch := range g.ChainList {
		owner := assign(ch)
		if owner < 0 || owner >= workers {
			return fmt.Errorf("scheduler: chain %v assigned to worker %d of %d",
				ch.Key, owner, workers)
		}
		ch.Owner = owner
	}
	return nil
}

// spinSweeps is how many full pop+steal sweeps an idle worker performs
// (yielding between them) before parking on the condition variable.
// Parking promptly matters on oversubscribed hosts, where spinning idle
// workers would steal cycles from the one making progress.
const spinSweeps = 2

type parallelRun struct {
	st     *store.Store
	deques []wsDeque
	timing bool
	hook   func(*tpg.OpNode)
	stats  *obs.SchedStats
	// ready holds each worker's Resolve buffer, stored back on return.
	ready [][]*tpg.OpNode

	// panicked holds the first panic recovered from a worker.
	panicked atomic.Pointer[opPanic]

	// pending counts unretired operations; the worker that moves it to
	// zero sets done and wakes all parked workers.
	pending atomic.Int64
	done    atomic.Bool

	// parked mirrors the number of workers blocked on idleCond; pushers
	// check it before touching the mutex, keeping the hot path lock-free.
	parked   atomic.Int32
	idleMu   sync.Mutex
	idleCond *sync.Cond
}

func (r *parallelRun) worker(w int, clock *metrics.WorkerClock) {
	ready := r.ready[w]
	defer func() { r.ready[w] = ready }()
	var n *tpg.OpNode
	for {
		if n == nil {
			n = r.acquire(w, clock)
			if n == nil {
				return // done (or stalled; Run reports the residue)
			}
		}
		r.fire(n, clock)
		var t0 time.Time
		if r.timing {
			t0 = time.Now()
		}
		ready = tpg.Resolve(n, ready[:0])
		n = nil
		if len(ready) > 0 {
			// Chain-locality fast path: Resolve places the chain successor
			// first; run it next without a deque round-trip and publish the
			// rest for thieves.
			n = ready[0]
			if rest := ready[1:]; len(rest) > 0 {
				d := &r.deques[w]
				for _, x := range rest {
					d.push(x)
				}
				r.wake(len(rest))
			}
		}
		if r.timing {
			clock.Explore += time.Since(t0)
		}
		if r.pending.Add(-1) == 0 {
			// Last operation retired: nothing can be ready (so n == nil),
			// terminate everyone.
			r.done.Store(true)
			r.wakeAll()
			return
		}
	}
}

// acquire returns the next ready node, stealing when the local deque runs
// dry and parking when the whole pool looks idle. It returns nil when the
// run is complete (or a stall — a dependency cycle — was detected).
//
// Timing attribution: a dequeue that finds ready work without blocking —
// a local pop, or a first-sweep steal — is explore time (scheduling work
// actually done); once a full search comes up empty, everything until the
// next acquisition — futile sweeps, yields, parking — is wait time. This
// is the accounting the per-worker breakdown of Figure 11 expects: the
// seed implementation's select/default split misattributed blocked-receive
// time to Explore whenever the queue was momentarily empty.
func (r *parallelRun) acquire(w int, clock *metrics.WorkerClock) *tpg.OpNode {
	d := &r.deques[w]
	var t0 time.Time
	if r.timing {
		t0 = time.Now()
	}
	if n := d.pop(); n != nil {
		if r.timing {
			clock.Explore += time.Since(t0)
		}
		return n
	}
	if n := r.stealSweep(w); n != nil {
		if r.timing {
			clock.Explore += time.Since(t0)
		}
		return n
	}
	// Blocked: from here on, elapsed time is starvation.
	sweeps := 1
	for {
		if r.done.Load() {
			if r.timing {
				clock.Wait += time.Since(t0)
			}
			return nil
		}
		if sweeps < spinSweeps {
			runtime.Gosched()
		} else {
			r.park()
			sweeps = 0
			// Re-check the local deque after waking: termination may have
			// raced a push, and pop is owner-only so thieves cannot fully
			// drain it for us.
			if n := d.pop(); n != nil {
				if r.timing {
					clock.Wait += time.Since(t0)
				}
				return n
			}
		}
		if n := r.stealSweep(w); n != nil {
			if r.timing {
				clock.Wait += time.Since(t0)
			}
			return n
		}
		sweeps++
	}
}

// stealSweep tries every other worker's deque once (plus contention
// retries), starting after w to spread thieves across victims.
func (r *parallelRun) stealSweep(w int) *tpg.OpNode {
	W := len(r.deques)
	for i := 1; i < W; i++ {
		v := w + i
		if v >= W {
			v -= W
		}
		for {
			n, retry := r.deques[v].steal()
			if n != nil {
				if st := r.stats; st != nil {
					st.Steals.Add(1)
				}
				return n
			}
			if !retry {
				break
			}
		}
	}
	if st := r.stats; st != nil {
		st.StealFails.Add(1)
	}
	return nil
}

// park blocks until new work may exist or the run completes. The final
// parker performs stall detection: if every worker is parked, no deque
// holds work, and operations remain unretired, no progress is possible —
// a dependency cycle — so it terminates the pool instead of deadlocking.
func (r *parallelRun) park() {
	if st := r.stats; st != nil {
		st.Parks.Add(1)
	}
	r.idleMu.Lock()
	p := r.parked.Add(1)
	if int(p) == len(r.deques) && !r.anyWork() && !r.done.Load() && r.pending.Load() > 0 {
		if st := r.stats; st != nil {
			st.Stalls.Add(1)
		}
		r.done.Store(true)
		r.idleCond.Broadcast()
		r.parked.Add(-1)
		r.idleMu.Unlock()
		return
	}
	for !r.done.Load() && !r.anyWork() {
		r.idleCond.Wait()
	}
	r.parked.Add(-1)
	r.idleMu.Unlock()
}

// anyWork reports whether any deque currently holds stealable work. Racy
// by design; used only under idleMu as the park predicate.
func (r *parallelRun) anyWork() bool {
	for i := range r.deques {
		if !r.deques[i].empty() {
			return true
		}
	}
	return false
}

// wake rouses up to n parked workers. Pushers call it after publishing
// work; the atomic check keeps the loaded (nobody-parked) path lock-free.
func (r *parallelRun) wake(n int) {
	if r.parked.Load() == 0 {
		return
	}
	if st := r.stats; st != nil {
		st.Wakes.Add(1)
	}
	r.idleMu.Lock()
	if n == 1 {
		r.idleCond.Signal()
	} else {
		r.idleCond.Broadcast()
	}
	r.idleMu.Unlock()
}

// wakeAll rouses every parked worker (termination).
func (r *parallelRun) wakeAll() {
	r.idleMu.Lock()
	r.idleCond.Broadcast()
	r.idleMu.Unlock()
}

// opPanic records the first worker panic of a run.
type opPanic struct {
	value any
	stack []byte
}

// recordPanic stores the first panic; later ones (peers tripping over the
// same poisoned state) are dropped — the first is the cause.
func (r *parallelRun) recordPanic(pv any, stack []byte) {
	if st := r.stats; st != nil {
		st.Panics.Add(1)
	}
	r.panicked.CompareAndSwap(nil, &opPanic{value: pv, stack: stack})
}

func (r *parallelRun) fire(n *tpg.OpNode, clock *metrics.WorkerClock) {
	if h := r.hook; h != nil {
		h(n)
	}
	if !r.timing {
		tpg.Fire(n, r.st)
		return
	}
	start := time.Now()
	tpg.Fire(n, r.st)
	if n.Txn.Aborted() {
		clock.Abort += time.Since(start)
	} else {
		clock.Execute += time.Since(start)
	}
}

// RunSequential executes the graph on the calling goroutine in global
// timestamp order. The order is topological by construction (all edges
// point from smaller (TS, Idx) to larger), so no dependency bookkeeping is
// required — precisely why sequential WAL redo needs its input sorted.
func RunSequential(g *tpg.Graph, st *store.Store, timing bool) (metrics.WorkerClock, error) {
	var clock metrics.WorkerClock
	for _, tn := range g.Txns {
		for _, n := range tn.Ops {
			if timing {
				start := time.Now()
				tpg.Fire(n, st)
				if tn.Aborted() {
					clock.Abort += time.Since(start)
				} else {
					clock.Execute += time.Since(start)
				}
			} else {
				tpg.Fire(n, st)
			}
		}
	}
	return clock, nil
}

// hashKey mixes a key into a well-distributed 64-bit hash
// (splitmix64-style finaliser).
func hashKey(k types.Key) uint64 {
	x := uint64(k.Row)<<8 | uint64(k.Table)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashAssign returns the default chain-to-worker assignment used at
// runtime: a stable hash of the chain key modulo the worker count.
func HashAssign(workers int) func(*tpg.Chain) int {
	return func(c *tpg.Chain) int { return int(hashKey(c.Key) % uint64(workers)) }
}
