package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"morphstreamr/internal/serve"
	"morphstreamr/internal/types"
)

// The load generator runs in a process of its own (this binary, started
// with -client). Inside the server's process a sender that wakes from its
// sleep has to wait for one of the server's scheduler slots: the p99 of send
// lateness was 5 ms on failover and 0.7 ms on idle, with single sends 10 to
// 20 ms late. From a separate process the kernel runs the waking thread at
// once.

// clientJob is what the runner writes to the generator's standard input.
type clientJob struct {
	Workload string
	Seed     int64
	Addr     string
	Lanes    int
	// Start, W0 and W1 are wall-clock instants in Unix ns: traffic starts at
	// Start, counts in [W0, W1) and stops at W1.
	Start, W0, W1 int64
	// Traced keeps every ack time and the due and ack time of every 16th
	// batch, for the kill → next ack metric and the client spans.
	Traced bool
}

// laneResult is one connection's account of a run.
type laneResult struct {
	Attempted   int // batches due inside the window
	Refused     int // answered with Slowdown; the run is invalid
	AckedEvents int // events of batches acked inside the window
	Sent, Acked uint64
	LatMs       []float64 // due → ack, batches acked inside the window
	LagMs       []float64 // open loop: how late each send in the window left
	AckAt       []int64   // Unix ns of every ack (traced)
	Sampled     []sampledBatch
}

// sampledBatch is one batch the traced run follows end to end.
type sampledBatch struct {
	Seq      uint64
	Due, Ack int64 // Unix ns
}

const sampleEvery = 16

type clientResult struct {
	Lanes []laneResult
	// Invalid says why the run must not become a data point; Err is any
	// other failure, audit violations included.
	Invalid, Err string
}

// clientMain is the generator process: job on standard input, result on
// standard output.
func clientMain() error {
	var job clientJob
	if err := json.NewDecoder(os.Stdin).Decode(&job); err != nil {
		return fmt.Errorf("client job: %w", err)
	}
	sp := findSpec(job.Workload)
	if sp == nil {
		return fmt.Errorf("client job: unknown workload %q", job.Workload)
	}
	res := clientResult{}
	p := phase{start: time.Unix(0, job.Start), w0: time.Unix(0, job.W0), w1: time.Unix(0, job.W1)}
	var ls []*lane
	for i := 0; i < job.Lanes; i++ {
		l, err := dial(sp, job.Addr, i, sp.ring(job.Seed, i), job.Seed)
		if err != nil {
			return err
		}
		l.traced = job.Traced
		ls = append(ls, l)
	}
	if err := drive(ls, p); err != nil {
		res.Err = err.Error()
	}
	for _, l := range ls {
		if l.invalid != "" {
			res.Invalid = l.invalid
		}
		l.res.Sent, l.res.Acked = l.sent.Load(), l.acked.Load()
		res.Lanes = append(res.Lanes, l.res)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// phase is one stretch of traffic: it starts at start, counts what happens
// in [w0, w1) and stops sending at w1.
type phase struct {
	start, w0, w1 time.Time
}

func (p phase) inWindow(t time.Time) bool { return !t.Before(p.w0) && t.Before(p.w1) }

// lane is one connection: a sender goroutine that submits on the workload's
// schedule and a reader goroutine that takes acks. The two share only the
// atomics below, so a slow ack never delays a send.
type lane struct {
	sp     *spec
	id     int
	c      *serve.Client
	ring   [][]types.Event
	rng    *rand.Rand // Poisson gaps; the sender's alone
	traced bool

	// due[seq&dueMask] is when batch seq was due to be sent, in ns since
	// phase.start. The sender writes it before the Submit, the reader loads
	// it at the ack; far fewer than len(due) batches are ever in flight.
	due     [dueRing]atomic.Int64
	sent    atomic.Uint64 // highest batch sequence submitted
	acked   atomic.Uint64 // highest batch sequence acked
	slots   chan struct{} // closed loop: free in-flight slots
	closing atomic.Bool   // drive is closing the connection

	// res.Attempted and res.LagMs are the sender's until the goroutines
	// join, the rest of res is the reader's.
	res     laneResult
	invalid string

	errMu sync.Mutex
	err   error
}

const (
	dueRing = 1 << 14
	dueMask = dueRing - 1
)

// dial connects one lane and resumes its batch sequence after the
// watermark the server reports.
func dial(sp *spec, addr string, id int, ring [][]types.Event, seed int64) (*lane, error) {
	// The read timeout must outlast the longest heal; acks never stop for
	// longer than that while batches are in flight.
	c, err := serve.Dial(addr, tenantName(id), 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial lane %d: %w", id, err)
	}
	l := &lane{sp: sp, id: id, c: c, ring: ring, rng: rand.New(rand.NewSource(seed*7919 + int64(id)))}
	l.sent.Store(c.Watermark)
	l.acked.Store(c.Watermark)
	return l, nil
}

func tenantName(id int) string { return fmt.Sprintf("t%d", id) }

// sendOpen submits on a Poisson schedule drawn from the seed. A late send is
// not rescheduled: it leaves at once, and its latency still counts from when
// it was due.
func (l *lane) sendOpen(p phase) {
	gap := float64(time.Second) / l.sp.rate
	next := p.start
	for seq := l.sent.Load() + 1; ; seq++ {
		next = next.Add(time.Duration(l.rng.ExpFloat64() * gap))
		if !next.Before(p.w1) {
			return
		}
		sleepUntil(next)
		l.due[seq&dueMask].Store(int64(next.Sub(p.start)))
		if p.inWindow(next) {
			l.res.Attempted++
			l.res.LagMs = append(l.res.LagMs, ms(time.Since(next)))
		}
		if err := l.c.Submit(seq, l.ring[seq%ringBatches]); err != nil {
			l.fail(fmt.Errorf("lane %d: submit %d: %w", l.id, seq, err))
			return
		}
		l.sent.Store(seq)
	}
}

// sendClosed keeps inflight batches outstanding: the next batch leaves when
// an ack frees a slot, and is due at that moment.
func (l *lane) sendClosed(p phase) {
	sleepUntil(p.start)
	stop := time.NewTimer(time.Until(p.w1))
	defer stop.Stop()
	for seq := l.sent.Load() + 1; ; seq++ {
		select {
		case <-l.slots:
		case <-stop.C:
			return
		}
		now := time.Now()
		if !now.Before(p.w1) {
			return
		}
		l.due[seq&dueMask].Store(int64(now.Sub(p.start)))
		if p.inWindow(now) {
			l.res.Attempted++
		}
		if err := l.c.Submit(seq, l.ring[seq%ringBatches]); err != nil {
			l.fail(fmt.Errorf("lane %d: submit %d: %w", l.id, seq, err))
			return
		}
		l.sent.Store(seq)
	}
}

// read takes frames until drive closes the connection. It is the client's
// half of the audit: acks must arrive once each and in sequence.
func (l *lane) read(p phase) {
	for {
		f, err := l.c.Next()
		if err != nil {
			if !l.closing.Load() {
				l.fail(fmt.Errorf("lane %d: read: %w", l.id, err))
			}
			return
		}
		switch f.Type {
		case serve.FrameAck:
			now := time.Now()
			want := l.acked.Load() + 1
			if f.BatchSeq != want {
				l.fail(fmt.Errorf("audit: lane %d: ack for batch %d, expected %d (duplicate or gap)", l.id, f.BatchSeq, want))
				return
			}
			due := p.start.Add(time.Duration(l.due[f.BatchSeq&dueMask].Load()))
			if p.inWindow(now) {
				l.res.LatMs = append(l.res.LatMs, ms(now.Sub(due)))
				l.res.AckedEvents += l.sp.batch
			}
			if l.traced {
				l.res.AckAt = append(l.res.AckAt, now.UnixNano())
				if f.BatchSeq%sampleEvery == 0 && p.inWindow(now) {
					l.res.Sampled = append(l.res.Sampled, sampledBatch{f.BatchSeq, due.UnixNano(), now.UnixNano()})
				}
			}
			l.acked.Store(f.BatchSeq)
			if l.slots != nil {
				l.slots <- struct{}{}
			}
		case serve.FrameSlowdown:
			// The server refused a batch and will refuse every later one as
			// out of order. The tenants' queues are deep enough that this
			// takes a stall of seconds; what follows would measure the
			// client's resends, so the run ends here.
			l.res.Refused++
			l.invalid = fmt.Sprintf("lane %d: batch %d refused (%v)", l.id, f.BatchSeq, f.Reason)
			return
		case serve.FrameError:
			l.fail(fmt.Errorf("lane %d: server error %d: %s", l.id, f.Code, f.Msg))
			return
		}
	}
}

// fail keeps the first error of either goroutine.
func (l *lane) fail(err error) {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	if l.err == nil {
		l.err = err
	}
}

// drive runs one phase on every lane, waits up to 5 s past its end for the
// acks still owed, and closes the connections.
func drive(ls []*lane, p phase) error {
	var senders, readers sync.WaitGroup
	for _, l := range ls {
		if l.sp.rate == 0 {
			l.slots = make(chan struct{}, l.sp.inflight)
			for i := 0; i < l.sp.inflight; i++ {
				l.slots <- struct{}{}
			}
		}
		senders.Add(1)
		readers.Add(1)
		go func() { defer readers.Done(); l.read(p) }()
		go func() {
			defer senders.Done()
			if l.sp.rate > 0 {
				l.sendOpen(p)
			} else {
				l.sendClosed(p)
			}
		}()
	}
	senders.Wait()
	owed := func() (n uint64) {
		for _, l := range ls {
			n += l.sent.Load() - l.acked.Load()
		}
		return n
	}
	for deadline := p.w1.Add(5 * time.Second); owed() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	for _, l := range ls {
		l.closing.Store(true)
		l.c.Close() // the reader's error path is the only one that cares
	}
	readers.Wait()
	var errs []error
	for _, l := range ls {
		errs = append(errs, l.err)
	}
	return errors.Join(errs...)
}

// generate starts the generator process on job and returns a function that
// waits for its result. The generator's standard error passes through; a
// generator still running 30 s after the window is killed (it ends by itself
// 5 s after the window at the latest).
func generate(job clientJob) (wait func() (*clientResult, error), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, job.W1).Add(30*time.Second))
	cmd := exec.CommandContext(ctx, exe, "-client")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		cancel()
		return nil, fmt.Errorf("start generator: %w", err)
	}
	return func() (*clientResult, error) {
		defer cancel()
		res := &clientResult{}
		derr := json.NewDecoder(out).Decode(res)
		io.Copy(io.Discard, out) // let the child finish writing whatever it has
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("generator: %w", err)
		}
		if derr != nil {
			return nil, fmt.Errorf("generator result: %w", derr)
		}
		return res, nil
	}, nil
}

// sleepUntil blocks the calling thread in nanosleep(2). time.Sleep parks the
// goroutine on the netpoller, whose timeout rounds up to whole milliseconds:
// on the reference host a 100 µs sleep took 1.1 ms. nanosleep overshoots by
// 65 to 100 µs.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early wake-up sends early by less than the lag limit
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
