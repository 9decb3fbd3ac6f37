package layers

import (
	"sync/atomic"
	"time"

	"morphstreamr/internal/storage"
)

// Device times every call into a storage device and records it as a
// storage span named after the operation and the log or blob it touched.
// It forwards the optional LogReader and Releaser capabilities, so the
// device behind it keeps its streaming reads and segment-granular GC.
type Device struct {
	inner storage.Device
	t     *Tracer
	// cause is the span that is running when the device is called: the
	// feed or heal of the serving backend, or a recovery of the fixture.
	cause *atomic.Int64
}

func (d *Device) span(op, name string, n int, start time.Time) {
	d.t.Add(Span{
		Layer: Storage, Name: op + " " + name, Start: start, Dur: time.Since(start),
		Parent: int(d.cause.Load()), N: n,
	})
}

// Append implements storage.Device.
func (d *Device) Append(log string, rec storage.Record) error {
	defer d.span("append", log, len(rec.Payload), time.Now())
	return d.inner.Append(log, rec)
}

// WriteBlob implements storage.Device.
func (d *Device) WriteBlob(name string, payload []byte) error {
	defer d.span("blob", name, len(payload), time.Now())
	return d.inner.WriteBlob(name, payload)
}

// ReadLog implements storage.Device.
func (d *Device) ReadLog(log string) ([]storage.Record, error) {
	defer d.span("read", log, 0, time.Now())
	return d.inner.ReadLog(log)
}

// ReadBlob implements storage.Device.
func (d *Device) ReadBlob(name string) ([]byte, bool, error) {
	defer d.span("read", name, 0, time.Now())
	return d.inner.ReadBlob(name)
}

// Truncate implements storage.Device.
func (d *Device) Truncate(log string, upTo uint64) error {
	defer d.span("release", log, 0, time.Now())
	return d.inner.Truncate(log, upTo)
}

// ReleaseThrough implements storage.Releaser.
func (d *Device) ReleaseThrough(log string, epoch uint64) error {
	defer d.span("release", log, 0, time.Now())
	return storage.Release(d.inner, log, epoch)
}

// BytesWritten implements storage.Device.
func (d *Device) BytesWritten() map[string]int64 { return d.inner.BytesWritten() }

// ReadFrom implements storage.LogReader. The read is one span that starts
// when the cursor opens and is as long as the time spent inside the device,
// not as long as the reader kept the cursor.
func (d *Device) ReadFrom(log string, fromEpoch uint64) (storage.Cursor, error) {
	start := time.Now()
	cur, err := storage.ReadFrom(d.inner, log, fromEpoch)
	if err != nil {
		return nil, err
	}
	return &cursor{inner: cur, d: d, log: log, busy: time.Since(start), start: start}, nil
}

type cursor struct {
	inner storage.Cursor
	d     *Device
	log   string
	start time.Time
	busy  time.Duration // time inside the device
	bytes int
	done  bool
}

func (c *cursor) Next() (storage.Record, bool, error) {
	t0 := time.Now()
	rec, ok, err := c.inner.Next()
	c.busy += time.Since(t0)
	c.bytes += len(rec.Payload)
	return rec, ok, err
}

func (c *cursor) Close() error {
	if !c.done {
		c.done = true
		c.d.t.Add(Span{
			Layer: Storage, Name: "read " + c.log, Start: c.start, Dur: c.busy,
			Parent: int(c.d.cause.Load()), N: c.bytes,
		})
	}
	return c.inner.Close()
}
