package serve

import (
	"fmt"
	"net"
	"sync"
	"time"

	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// chaosDriver is one tenant's client under chaos: it submits a fixed batch
// stream with a small in-flight window, absorbs Slowdown frames, and — when
// the connection dies — redials, learns the surviving watermark from the
// HelloAck, and resumes from the first unacked batch. It records every
// ack-observation time (the raw material for client-observed MTTR) and
// per-batch ack lag.
type chaosDriver struct {
	addr    string
	tenant  string
	batches [][]types.Event
	window  uint64
	// sampleEvery, when > 0, sets the Submit sampled flag on every batch
	// sequence divisible by it — the client-side journey sampling path.
	sampleEvery uint64

	// Written only by the driver goroutine; read by the harness after the
	// driver's goroutine joins.
	lags       []time.Duration
	ackTimes   []time.Time
	reconnects int64
	err        error

	mu  sync.Mutex
	cur net.Conn // live connection, for sever()
}

func newChaosDriver(addr, tenant string, batches [][]types.Event) *chaosDriver {
	return &chaosDriver{addr: addr, tenant: tenant, batches: batches, window: 4}
}

// sever hard-closes the driver's live connection from the harness goroutine
// (the reconnect-storm cell). The driver's blocked read fails and it redials.
func (d *chaosDriver) sever() {
	d.mu.Lock()
	if d.cur != nil {
		d.cur.Close()
	}
	d.mu.Unlock()
}

func (d *chaosDriver) setConn(c net.Conn) {
	d.mu.Lock()
	d.cur = c
	d.mu.Unlock()
}

// run drives the stream to completion: every batch acked, or stop closed.
func (d *chaosDriver) run(stop <-chan struct{}) {
	total := uint64(len(d.batches))
	acked := uint64(0)
	submitted := map[uint64]time.Time{} // batch seq → first submit, for lag
	first := true
	for {
		select {
		case <-stop:
			return
		default:
		}
		if !first {
			d.reconnects++
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
		first = false
		c, err := Dial(d.addr, d.tenant, time.Second)
		if err != nil {
			continue
		}
		d.setConn(c.Conn())
		if c.Watermark > acked {
			// Batches acked while disconnected: the HelloAck is the moment
			// this client observes the service recovered.
			acked = c.Watermark
			d.ackTimes = append(d.ackTimes, time.Now())
		}
		if acked >= total {
			c.Close()
			d.setConn(nil)
			return
		}
		done := d.session(c, &acked, total, submitted, stop)
		c.Close()
		d.setConn(nil)
		if done || acked >= total {
			return
		}
	}
}

// session runs one connection's submit/ack loop; it returns true when the
// whole stream is acked (or stop fired) and false when the connection died.
func (d *chaosDriver) session(c *Client, acked *uint64, total uint64, submitted map[uint64]time.Time, stop <-chan struct{}) bool {
	cursor := *acked + 1
	for {
		select {
		case <-stop:
			return true
		default:
		}
		for cursor <= total && cursor-*acked <= d.window {
			if _, ok := submitted[cursor]; !ok {
				submitted[cursor] = time.Now()
			}
			var flags uint64
			if d.sampleEvery > 0 && cursor%d.sampleEvery == 0 {
				flags |= SubmitFlagSampled
			}
			if err := c.SubmitFlags(cursor, d.batches[cursor-1], flags); err != nil {
				return false
			}
			cursor++
		}
		f, err := c.Next()
		if err != nil {
			return false
		}
		switch f.Type {
		case FrameAck:
			if f.BatchSeq > *acked {
				if t0, ok := submitted[f.BatchSeq]; ok {
					d.lags = append(d.lags, time.Since(t0))
				}
				*acked = f.BatchSeq
				d.ackTimes = append(d.ackTimes, time.Now())
			}
			if *acked >= total {
				return true
			}
		case FrameSlowdown:
			// Resume from what the server says (order) or from the rejected
			// batch (rate/queue/degraded) after the advised pause; sequences
			// in between are re-sent and dedupe as pending.
			next := f.BatchSeq
			if next <= *acked {
				next = *acked + 1
			}
			if next < cursor {
				cursor = next
			}
			if f.Reason != SlowOrder {
				wait := time.Duration(f.RetryAfterMs) * time.Millisecond
				if wait <= 0 {
					wait = time.Millisecond
				}
				select {
				case <-stop:
					return true
				case <-time.After(wait):
				}
			}
		case FramePong, FrameHelloAck:
			// Ignorable here.
		case FrameError:
			d.err = fmt.Errorf("serve: driver %s: server error %d: %s", d.tenant, f.Code, f.Msg)
			return false
		}
	}
}

// runRogue is the slow-consumer cell's misbehaving client: it submits its
// whole stream but never reads acks. Its receive buffer is shrunk to the
// kernel's minimum, so the acks it leaves unread back up into the server's
// bounded ack buffer instead of a loopback socket's, and after the stream it
// keeps replaying batch 1 — one dedupe ack per replay once that batch is
// durable — until the server evicts the session. Only then does it redial,
// learning progress from the HelloAck watermark alone, and resume — proving
// eviction loses no acks and never wedges the pump.
func runRogue(addr string, batches, batchEvents int, rows uint32, seed int64, stop <-chan struct{}) {
	gen := workload.NewGS(workload.GSParams{
		Seed: seed + 9973, Rows: rows, Partitions: 2,
		Theta: 0.6, Reads: 2, MultiPartitionRatio: 0.2,
	})
	stream := make([][]types.Event, batches)
	for b := range stream {
		stream[b] = workload.Batch(gen, batchEvents)
	}
	total := uint64(batches)
	for {
		select {
		case <-stop:
			return
		default:
		}
		c, err := Dial(addr, "rogue", time.Second)
		if err != nil {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		if c.Watermark >= total {
			c.Close()
			return
		}
		// Best effort: should the kernel refuse, the replay loop below still
		// ends in eviction, only after more replays.
		_ = c.Conn().(*net.TCPConn).SetReadBuffer(1)
		for seq := c.Watermark + 1; seq <= total && err == nil; seq++ {
			err = c.Submit(seq, stream[seq-1])
		}
		for n := 0; err == nil; n++ {
			// Pause every 64 replays so the flood cannot starve the pump, whose
			// commits it waits on, of a small host's CPU.
			if n%64 == 0 {
				select {
				case <-stop:
					c.Close()
					return
				case <-time.After(time.Millisecond):
				}
			}
			err = c.Submit(1, stream[0])
		}
		c.Close()
	}
}

// halfOpenConn is a connection that never completes the handshake: either
// silent after connect, or a truncated frame (a length prefix promising
// bytes that never arrive). The server must shed these on HelloTimeout
// without stalling accept or leaking sessions.
type halfOpenConn struct {
	c net.Conn
}

func dialHalfOpen(addr string, truncated bool) *halfOpenConn {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil
	}
	if truncated {
		// Length prefix claims 100 bytes; only the type byte follows.
		c.Write([]byte{100, byte(FrameHello)})
	}
	return &halfOpenConn{c: c}
}

func (h *halfOpenConn) close() {
	if h.c != nil {
		h.c.Close()
	}
}
