package scheduler

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"morphstreamr/internal/metrics"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
)

// ErrPoolClosed is returned by Pool.Run after Close.
var ErrPoolClosed = errors.New("scheduler: pool closed")

// Pool is the worker pool every parallel run executes on, and the one place
// worker goroutines are started. Workers block on their task channel between
// runs and the Chase-Lev rings (including any growth) are reused, so an
// engine that keeps its Pool pays no per-epoch spawn or allocation; the
// package-level Run wraps a Pool that lives for one call.
//
// The pool is also the resize point of the adaptive controller: Resize
// changes the live worker count between epochs. Run and Resize serialise on
// one mutex, and Run holds it until every worker has finished the epoch and
// parked back on its channel — so a resize can only observe a quiesced
// pool: no worker is inside a run, no deque holds work, and the park/wake
// machinery of the retiring run has fully terminated. Shrinking closes the
// surplus workers' channels (their goroutines exit); growing spawns fresh
// ones. An operation panic is confined to the failing run: the worker
// records it, terminates the run, and parks for the next epoch, and Run
// returns ErrOpPanic instead of crashing the process.
type Pool struct {
	mu     sync.Mutex
	max    int
	size   int
	closed bool

	// deques is the shared fleet, length max: a run of W workers uses the
	// first W. All deques are empty between runs (the error path drains
	// residue), so reuse needs no reinitialisation.
	deques []wsDeque
	tasks  []chan poolTask
	// workers counts live worker goroutines, so Close can return only once
	// every one of them has exited.
	workers sync.WaitGroup

	// stats receives the Resizes counter (per-run counters come from each
	// run's Options).
	stats *obs.SchedStats

	// run, wg, clocks and heads are one run's state, reset and reused by
	// every Run (which holds mu until each worker is back), so a warm epoch
	// allocates nothing here.
	run    parallelRun
	wg     sync.WaitGroup
	clocks []metrics.WorkerClock
	heads  []*tpg.OpNode
}

// poolTask is one worker's share of one epoch run.
type poolTask struct {
	run   *parallelRun
	w     int
	clock *metrics.WorkerClock
	wg    *sync.WaitGroup
}

// NewPool creates a pool with the given worker-count ceiling. The pool
// starts at the ceiling; Resize moves the live count within [1, max].
// stats, when non-nil, receives resize counts; it may be nil.
func NewPool(max int, stats *obs.SchedStats) *Pool {
	max = types.NormalizeWorkers(max)
	p := &Pool{max: max, deques: make([]wsDeque, max), stats: stats, clocks: make([]metrics.WorkerClock, max)}
	p.run.idleCond, p.run.ready = sync.NewCond(&p.run.idleMu), make([][]*tpg.OpNode, max)
	initDeques(p.deques)
	p.mu.Lock()
	p.resizeLocked(max)
	p.mu.Unlock()
	return p
}

// Size returns the live worker count.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.size
}

// Resize sets the live worker count, clamped to [1, max]. It blocks until
// any in-flight run has quiesced (the run mutex is the barrier), then
// returns the count actually in effect.
func (p *Pool) Resize(n int) int {
	if n < 1 {
		n = 1
	}
	if n > p.max {
		n = p.max
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || n == p.size {
		return p.size
	}
	p.resizeLocked(n)
	if p.stats != nil {
		p.stats.Resizes.Add(1)
	}
	return p.size
}

// resizeLocked adjusts the worker goroutines to n. Caller holds mu.
func (p *Pool) resizeLocked(n int) {
	for len(p.tasks) > n {
		last := len(p.tasks) - 1
		close(p.tasks[last])
		p.tasks = p.tasks[:last]
	}
	for len(p.tasks) < n {
		ch := make(chan poolTask, 1)
		p.tasks = append(p.tasks, ch)
		p.workers.Add(1)
		go p.worker(ch)
	}
	p.size = n
}

// Close terminates every worker goroutine and returns once they have
// exited. It waits for a run in flight (the run mutex). Idempotent; Run
// afterwards returns ErrPoolClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.resizeLocked(0)
	p.closed = true
	p.workers.Wait()
}

// worker is one persistent worker goroutine: it executes its share of each
// dispatched run, isolating operation panics so the goroutine itself
// survives for the next epoch, and exits when its channel is closed.
func (p *Pool) worker(tasks <-chan poolTask) {
	defer p.workers.Done()
	for t := range tasks {
		runTask(t)
	}
}

func runTask(t poolTask) {
	defer t.wg.Done()
	defer func() {
		if pv := recover(); pv != nil {
			t.run.recordPanic(pv, debug.Stack())
			t.run.done.Store(true)
			t.run.wakeAll()
		}
	}()
	t.run.worker(t.w, t.clock)
}

// Run executes every node of the graph on the pool, resizing to opt.Workers
// first (the adaptive controller's per-epoch worker morph — free when the
// count is unchanged), and returns the per-worker clocks (all zero unless
// Timing is set; valid until the pool's next Run).
func (p *Pool) Run(g *tpg.Graph, st *store.Store, opt Options) ([]metrics.WorkerClock, error) {
	workers := types.NormalizeWorkers(opt.Workers)
	if workers > p.max {
		workers = p.max
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	if workers != p.size {
		p.resizeLocked(workers)
		if p.stats != nil {
			p.stats.Resizes.Add(1)
		}
	}
	clocks := p.clocks[:workers]
	clear(clocks)
	if g.NumOps == 0 {
		return clocks, nil
	}
	if err := assignOwners(g, workers, opt.Assign); err != nil {
		return nil, err
	}

	run := &p.run
	run.st, run.deques, run.timing, run.hook, run.stats = st, p.deques[:workers], opt.Timing, opt.FireHook, opt.Stats
	run.panicked.Store(nil)
	run.done.Store(false)
	run.pending.Store(int64(g.NumOps))
	// Seeding precedes the channel sends that start the workers, so
	// owner-only pushes from this goroutine are safe.
	p.heads = g.Heads(p.heads[:0])
	for _, n := range p.heads {
		run.deques[n.Chain.Owner].push(n)
	}

	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		p.tasks[w] <- poolTask{run: run, w: w, clock: &clocks[w], wg: &p.wg}
	}
	p.wg.Wait()

	if pn := run.panicked.Load(); pn != nil {
		p.drainDeques()
		return clocks, fmt.Errorf("%w: %v\n%s", ErrOpPanic, pn.value, pn.stack)
	}
	if n := run.pending.Load(); n != 0 {
		// Stall residue: unexecuted nodes may still sit in the deques; they
		// must not leak into the next epoch's run.
		p.drainDeques()
		return clocks, fmt.Errorf("scheduler: %d operations never became ready (dependency cycle?)", n)
	}
	return clocks, nil
}

// drainDeques empties every deque after a failed run. Caller holds mu and
// every worker has quiesced, so owner-only pops from this goroutine are
// safe.
func (p *Pool) drainDeques() {
	for i := range p.deques {
		for p.deques[i].pop() != nil {
		}
	}
}
