package serve

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Error frame codes.
const (
	errCodeProtocol      = 1
	errCodeUnknownTenant = 2
	errCodeHelloFirst    = 3
)

// session is one client connection: a read loop that admits Submits and a
// write loop that drains a bounded outbound buffer. The two loops share
// nothing but the buffer channel, so a stalled peer can only ever block its
// own write loop — and once the buffer fills, trySend evicts the session
// rather than let acks queue without bound (slow-consumer protection).
type session struct {
	srv  *Server
	conn net.Conn
	tn   atomic.Pointer[tenant] // set after Hello

	out       chan []byte
	closed    atomic.Bool
	closeOnce sync.Once
	done      chan struct{}
}

func newSession(srv *Server, conn net.Conn) {
	sess := &session{
		srv:  srv,
		conn: conn,
		out:  make(chan []byte, srv.cfg.AckBuffer),
		done: make(chan struct{}),
	}
	if !srv.addSession(sess) {
		conn.Close()
		return
	}
	srv.wg.Add(2)
	go sess.readLoop()
	go sess.writeLoop()
}

// close tears the session down (idempotent, safe from any goroutine).
func (s *session) close() {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		close(s.done)
		s.conn.Close()
		if tn := s.tn.Load(); tn != nil {
			tn.detach(s)
		}
		s.srv.dropSession(s)
	})
}

// trySend queues one frame without blocking; a full buffer evicts the
// session. Acks for an evicted session are not lost — the batch's
// watermark advance is durable, and the client learns it from HelloAck on
// reconnect.
func (s *session) trySend(frame []byte) {
	if s.closed.Load() {
		return
	}
	select {
	case s.out <- frame:
	default:
		s.srv.count("serve.evictions")
		s.close()
	}
}

func (s *session) writeLoop() {
	defer s.srv.wg.Done()
	defer s.close()
	for {
		select {
		case <-s.done:
			return
		case frame := <-s.out:
			s.conn.SetWriteDeadline(time.Now().Add(s.srv.cfg.WriteTimeout))
			if _, err := s.conn.Write(frame); err != nil {
				return
			}
		}
	}
}

func (s *session) readLoop() {
	defer s.srv.wg.Done()
	defer s.close()
	br := bufio.NewReader(s.conn)

	// Hello first, under its own (shorter) deadline: half-open connections
	// are shed here, on this goroutine, leaving the accept loop free.
	s.conn.SetReadDeadline(time.Now().Add(s.srv.cfg.HelloTimeout))
	payload, err := ReadFrame(br, s.srv.cfg.MaxFrame)
	if err != nil {
		return
	}
	hello, err := DecodeFrame(payload)
	if err != nil || hello.Type != FrameHello {
		s.trySend(EncodeError(errCodeHelloFirst, "expected Hello"))
		time.Sleep(time.Millisecond) // let the error frame flush
		return
	}
	tn, ok := s.srv.tenants[hello.Tenant]
	if !ok {
		s.trySend(EncodeError(errCodeUnknownTenant, "unknown tenant "+hello.Tenant))
		time.Sleep(time.Millisecond)
		return
	}
	s.tn.Store(tn)
	wm := tn.attach(s)
	s.trySend(EncodeHelloAck(wm, s.srv.Committed()))

	var into *batch // what the next Submit decodes into; admission takes it
	for {
		s.conn.SetReadDeadline(time.Now().Add(s.srv.cfg.IdleTimeout))
		payload, err = readFrame(br, s.srv.cfg.MaxFrame, payload)
		if err != nil {
			return
		}
		if into == nil {
			into = batchPool.Get().(*batch)
		}
		f, err := decodeFrame(payload, into)
		if err == nil && f.Type == FrameSubmit {
			err = s.srv.checkKeys(f.Events)
		}
		if err != nil {
			s.trySend(EncodeError(errCodeProtocol, err.Error()))
			time.Sleep(time.Millisecond)
			return
		}
		switch f.Type {
		case FrameSubmit:
			s.handleSubmit(tn, f, into)
			into = nil
		case FramePing:
			s.trySend(EncodePong())
		case FrameHello:
			// Re-Hello on a live connection: re-attach and re-sync.
			s.trySend(EncodeHelloAck(tn.attach(s), s.srv.Committed()))
		default:
			s.trySend(EncodeError(errCodeProtocol, "unexpected frame"))
			time.Sleep(time.Millisecond)
			return
		}
	}
}

// handleSubmit runs admission and answers with the protocol's explicit
// verdicts. Accepted batches are acked later, by the pump, once their
// epoch commits; everything else is answered here, and its batch b (which
// f's events live in) is recycled at once.
func (s *session) handleSubmit(tn *tenant, f Frame, b *batch) {
	rec := s.srv.cfg.Journeys
	sampled := rec.ShouldSample(f.BatchSeq, f.Flags&SubmitFlagSampled != 0)
	v := tn.admit(f.BatchSeq, b, s.srv.degraded.Load(), s.srv.cfg.ShedBelow, time.Now(), rec, sampled)
	if v != vAccept {
		b.recycle()
	}
	switch v {
	case vAccept:
		// The ack comes from the pump when the covering epoch commits.
	case vDupAcked:
		// Already durable: answer immediately, do not feed twice. This is
		// the reconnect replay path; it bypasses the pump's AckLog because
		// it re-states a past decision rather than making a new one.
		s.srv.count("serve.dedupe_acks")
		s.trySend(EncodeAck(f.BatchSeq, s.srv.Committed()))
	case vDupPending:
		// Admitted earlier, still in flight: the real ack is coming.
	case vOutOfOrder:
		s.noteSlowdown(tn, SlowOrder)
		s.trySend(EncodeSlowdown(tn.resendFrom(), 0, SlowOrder))
	case vShed:
		s.noteSlowdown(tn, SlowDegraded)
		s.trySend(EncodeSlowdown(f.BatchSeq, 20, SlowDegraded))
	case vThrottle:
		s.noteSlowdown(tn, SlowRate)
		s.trySend(EncodeSlowdown(f.BatchSeq, tn.retryAfterMs(), SlowRate))
	case vQueueFull:
		s.noteSlowdown(tn, SlowQueue)
		s.trySend(EncodeSlowdown(f.BatchSeq, 10, SlowQueue))
	}
}

// noteSlowdown counts a Slowdown and drops a rate-limited marker on the
// incident timeline (one per reason per 250ms — a rejection storm reads
// as a burst marker, not thousands of events).
func (s *session) noteSlowdown(tn *tenant, reason SlowReason) {
	s.srv.count("serve.slowdowns")
	s.srv.timeline().AddLimited(250*time.Millisecond, "serve", "slowdown",
		tn.cfg.Name+": "+reason.String(), nil)
}
