package serve

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"morphstreamr/internal/types"
)

// Client is a minimal synchronous protocol client: Dial performs the
// Hello handshake and surfaces the server's acked watermark; Submit and
// Next exchange frames. It is deliberately thin — reconnect policy,
// windowing, and backoff live in the chaos driver, not here.
type Client struct {
	conn net.Conn
	br   *bufio.Reader

	// Watermark is the acked high-watermark the HelloAck reported: every
	// batch at or below it is durably committed from a past connection.
	Watermark uint64
	// Committed is the server's punctuation frontier at handshake time.
	Committed uint64

	maxFrame int
	timeout  time.Duration
}

// Dial connects, handshakes as tenant, and returns a ready client.
func Dial(addr, tenant string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn), maxFrame: DefaultMaxFrame, timeout: timeout}
	if err := c.write(EncodeHello(tenant)); err != nil {
		conn.Close()
		return nil, err
	}
	f, err := c.Next()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if f.Type == FrameError {
		conn.Close()
		return nil, fmt.Errorf("serve: hello rejected (code %d): %s", f.Code, f.Msg)
	}
	if f.Type != FrameHelloAck {
		conn.Close()
		return nil, fmt.Errorf("%w: expected HelloAck, got 0x%02x", ErrBadFrame, byte(f.Type))
	}
	c.Watermark = f.Watermark
	c.Committed = f.Epoch
	return c, nil
}

// Submit sends one batch.
func (c *Client) Submit(batchSeq uint64, events []types.Event) error {
	return c.write(EncodeSubmit(batchSeq, events))
}

// SubmitFlags sends one batch with Submit flags (e.g. SubmitFlagSampled to
// request an end-to-end journey trace for this batch).
func (c *Client) SubmitFlags(batchSeq uint64, events []types.Event, flags uint64) error {
	return c.write(EncodeSubmitFlags(batchSeq, events, flags))
}

// Next reads the next frame under the client timeout.
func (c *Client) Next() (Frame, error) {
	c.conn.SetReadDeadline(time.Now().Add(c.timeout))
	payload, err := ReadFrame(c.br, c.maxFrame)
	if err != nil {
		return Frame{}, err
	}
	return DecodeFrame(payload)
}

func (c *Client) write(frame []byte) error {
	c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	_, err := c.conn.Write(frame)
	return err
}

// Conn exposes the raw connection (the chaos harness severs it mid-run).
func (c *Client) Conn() net.Conn { return c.conn }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
