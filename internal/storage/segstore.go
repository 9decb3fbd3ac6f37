package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrSegmentBudget is returned by Append when a log would need more live
// segments than the configured ring allows. It is the store's backpressure
// signal: the writer outran garbage collection, so a covering checkpoint
// must commit (and release segments) before more records can land.
var ErrSegmentBudget = errors.New("storage: segment ring full")

// SegConfig shapes a SegStore.
type SegConfig struct {
	// SegmentBytes caps each segment's payload bytes; a record larger than
	// the cap gets a private oversized segment. Zero means 64 KiB.
	SegmentBytes int
	// MaxSegments bounds the live (unreleased) segments per log; appends
	// needing a segment beyond the bound fail with ErrSegmentBudget. Zero
	// means unbounded — the footprint is then bounded by checkpoint
	// cadence alone.
	MaxSegments int
	// Compact rewrites segments that straddle the release horizon down to
	// their live suffix inline on each release (MSR view logs keep only a
	// committed suffix live, so straddlers are where dead bytes hide).
	Compact bool
}

// SegStore is the bounded segment store: each log is a ring of fixed-size
// segments, sealed segments carry an index entry giving O(log n) seek by
// epoch, and garbage collection reclaims whole segments for reuse instead
// of rewriting bytes (the ts-store design: circular data blocks plus a
// searchable block index). It is in-memory like Mem — the crash model
// keeps the device and discards the engine — and sits at the bottom of the
// wrapper stack.
//
// Epoch order caveat: logs are not strictly epoch-monotone (a recovered
// incarnation re-appends coordinator epochs at or below earlier records),
// so a segment's index entry stores seekHi, the prefix-maximum of segment
// hi epochs. seekHi is monotone by construction, which makes binary search
// valid; it can only overestimate, so a seek lands at or before the first
// wanted record and the cursor's record-level epoch filter does the rest.
type SegStore struct {
	mu    sync.Mutex
	cfg   SegConfig
	logs  map[string]*segLog
	blobs map[string][]byte
	bytes map[string]int64
	free  [][]byte
	seq   uint64
	// hook is the crash-point test seam: it fires between the index update
	// and the segment-slab reuse of a release ("release-index" then
	// "segment-reuse"), and after a seal ("seal"). Nil outside tests.
	hook func(event, log string)
}

type segment struct {
	seq    uint64
	lo, hi uint64 // min/max record epoch in the segment
	seekHi uint64 // prefix-max of hi over the index through this segment
	n      int
	buf    []byte
	// pins counts open cursors holding the segment; a released segment's
	// slab recycles only at zero, so a reader never observes reused bytes.
	pins atomic.Int32
}

type segLog struct {
	sealed []*segment
	active *segment
	// floor is the exact-read watermark (Truncate semantics): records with
	// epoch <= floor are dead to every reader.
	floor uint64
	// relMark is the release covenant: callers declared epochs <= relMark
	// covered by a checkpoint, so compaction may drop them even though
	// conservative retention keeps some readable until then.
	relMark  uint64
	released int
}

// NewSegStore creates an empty segment store.
func NewSegStore(cfg SegConfig) *SegStore {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 64 << 10
	}
	return &SegStore{
		cfg:   cfg,
		logs:  make(map[string]*segLog),
		blobs: make(map[string][]byte),
		bytes: make(map[string]int64),
	}
}

func (s *SegStore) fire(event, log string) {
	if s.hook != nil {
		s.hook(event, log)
	}
}

// SetHook installs the crash-point test seam (see SegStore.hook).
func (s *SegStore) SetHook(h func(event, log string)) {
	s.mu.Lock()
	s.hook = h
	s.mu.Unlock()
}

func (s *SegStore) log(name string) *segLog {
	lg := s.logs[name]
	if lg == nil {
		lg = &segLog{}
		s.logs[name] = lg
	}
	return lg
}

// slab returns a buffer of at least capacity need, reusing a released
// segment's slab when one fits (reclamation, not truncation).
func (s *SegStore) slab(need int) []byte {
	for i := len(s.free) - 1; i >= 0; i-- {
		if cap(s.free[i]) >= need {
			b := s.free[i][:0]
			s.free = append(s.free[:i], s.free[i+1:]...)
			return b
		}
	}
	if need < s.cfg.SegmentBytes {
		need = s.cfg.SegmentBytes
	}
	return make([]byte, 0, need)
}

// seal closes the active segment and appends its index entry.
func (s *SegStore) seal(name string, lg *segLog) {
	sg := lg.active
	if sg == nil || sg.n == 0 {
		return
	}
	sg.seekHi = sg.hi
	if n := len(lg.sealed); n > 0 && lg.sealed[n-1].seekHi > sg.seekHi {
		sg.seekHi = lg.sealed[n-1].seekHi
	}
	lg.sealed = append(lg.sealed, sg)
	lg.active = nil
	s.fire("seal", name)
}

// live counts the log's unreleased segments, active included.
func (lg *segLog) live() int {
	n := len(lg.sealed)
	if lg.active != nil {
		n++
	}
	return n
}

// Append implements Device. The record is framed as uvarint epoch +
// uvarint length + payload into the active segment, sealing it first when
// the frame does not fit.
func (s *SegStore) Append(name string, rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	lg := s.log(name)
	frame := binary.MaxVarintLen64*2 + len(rec.Payload)
	if sg := lg.active; sg != nil && len(sg.buf)+frame > s.cfg.SegmentBytes && sg.n > 0 {
		s.seal(name, lg)
	}
	if lg.active == nil {
		if s.cfg.MaxSegments > 0 && lg.live() >= s.cfg.MaxSegments {
			return fmt.Errorf("%w: log %q at %d segments", ErrSegmentBudget, name, lg.live())
		}
		s.seq++
		lg.active = &segment{seq: s.seq, buf: s.slab(frame)}
	}
	sg := lg.active
	sg.buf = binary.AppendUvarint(sg.buf, rec.Epoch)
	sg.buf = binary.AppendUvarint(sg.buf, uint64(len(rec.Payload)))
	sg.buf = append(sg.buf, rec.Payload...)
	if sg.n == 0 || rec.Epoch < sg.lo {
		sg.lo = rec.Epoch
	}
	if rec.Epoch > sg.hi {
		sg.hi = rec.Epoch
	}
	sg.n++
	s.bytes[name] += int64(len(rec.Payload))
	return nil
}

// seek returns the index of the first sealed segment that can hold a
// record with epoch > from: binary search on the monotone seekHi.
func seek(sealed []*segment, from uint64) int {
	lo, hi := 0, len(sealed)
	for lo < hi {
		mid := (lo + hi) / 2
		if sealed[mid].seekHi > from {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// ReadFrom implements LogReader: O(log n) seek over the sealed index, then
// record-at-a-time iteration with the epoch filter.
func (s *SegStore) ReadFrom(name string, fromEpoch uint64) (Cursor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lg := s.logs[name]
	if lg == nil {
		return NewSliceCursor(nil, 0), nil
	}
	from := fromEpoch
	if lg.floor > from {
		from = lg.floor
	}
	var segs []*segment
	var bufs [][]byte
	for _, sg := range lg.sealed[seek(lg.sealed, from):] {
		sg.pins.Add(1)
		segs = append(segs, sg)
		bufs = append(bufs, sg.buf)
	}
	if sg := lg.active; sg != nil && sg.n > 0 {
		// The active segment keeps growing; snapshot the slice header under
		// the lock — appends only ever write past this view's length, and
		// the pin keeps the backing array off the freelist.
		sg.pins.Add(1)
		segs = append(segs, sg)
		bufs = append(bufs, sg.buf)
	}
	return &segCursor{segs: segs, bufs: bufs, from: from}, nil
}

// ReadLog implements Device as a shim over the cursor.
func (s *SegStore) ReadLog(name string) ([]Record, error) {
	cur, err := s.ReadFrom(name, 0)
	if err != nil {
		return nil, err
	}
	return ReadAll(cur)
}

// segCursor iterates pinned segments record by record over slice headers
// snapshotted at creation, copying each payload out (callers retain
// records; segment slabs recycle once unpinned).
type segCursor struct {
	segs []*segment
	bufs [][]byte // views captured under the store lock at creation
	from uint64
	pos  int
	off  int

	closed bool
}

func (c *segCursor) Next() (Record, bool, error) {
	for c.pos < len(c.bufs) {
		buf := c.bufs[c.pos]
		if c.off >= len(buf) {
			c.pos++
			c.off = 0
			continue
		}
		ep, _, payload, next, err := frameAt(buf, c.off)
		if err != nil {
			return Record{}, false, err
		}
		c.off = next
		if ep > c.from {
			return Record{Epoch: ep, Payload: append([]byte(nil), payload...)}, true, nil
		}
	}
	return Record{}, false, nil
}

func (c *segCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	for _, sg := range c.segs {
		sg.pins.Add(-1)
	}
	return nil
}

// WriteBlob implements Device.
func (s *SegStore) WriteBlob(name string, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[name] = append([]byte(nil), payload...)
	s.bytes[name] += int64(len(payload))
	return nil
}

// ReadBlob implements Device.
func (s *SegStore) ReadBlob(name string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[name]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), b...), true, nil
}

// Truncate implements Device with exact semantics: records with epoch <=
// upTo become unreadable immediately (the floor), and fully covered head
// segments are reclaimed through the same release path GC uses.
func (s *SegStore) Truncate(name string, upTo uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	lg := s.log(name)
	if upTo > lg.floor {
		lg.floor = upTo
	}
	s.release(name, lg, upTo)
	return nil
}

// ReleaseThrough implements Releaser: segment-granular reclamation without
// the exact-read floor — records at or below upTo in a straddling segment
// stay conservatively readable until compaction rewrites it.
func (s *SegStore) ReleaseThrough(name string, upTo uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	lg := s.log(name)
	s.release(name, lg, upTo)
	return nil
}

// release is the single segment-release path (Truncate and ReleaseThrough
// both land here): pop fully covered segments off the index head, then
// recycle their slabs. The index update happens strictly before any slab
// reuse, and the hook seam lets the crash sweep stop between the two.
func (s *SegStore) release(name string, lg *segLog, upTo uint64) {
	if upTo > lg.relMark {
		lg.relMark = upTo
	}
	var freed []*segment
	for len(lg.sealed) > 0 && lg.sealed[0].hi <= upTo {
		freed = append(freed, lg.sealed[0])
		lg.sealed = lg.sealed[1:]
		lg.released++
	}
	if len(freed) > 0 {
		s.fire("release-index", name)
		for _, sg := range freed {
			if sg.pins.Load() == 0 {
				// No cursor holds the segment: its slab recycles. A pinned
				// segment keeps its bytes until the cursor closes (the GC
				// reclaims the slab; it just skips the freelist).
				s.free = append(s.free, sg.buf)
				sg.buf = nil
				s.fire("segment-reuse", name)
			}
		}
	}
	if s.cfg.Compact {
		s.compact(lg)
	}
}

// CompactNow rewrites the named log's straddling segments down to their
// live suffix (records above the release covenant). Returns how many
// segments were rewritten.
func (s *SegStore) CompactNow(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	lg := s.logs[name]
	if lg == nil {
		return 0
	}
	return s.compact(lg)
}

// compact rewrites sealed segments straddling relMark. Replaced segments
// are fresh objects, so concurrent cursors pinning the old ones keep a
// consistent view; old slabs recycle when unpinned.
func (s *SegStore) compact(lg *segLog) int {
	n := 0
	for i, sg := range lg.sealed {
		if sg.lo > lg.relMark || sg.hi <= lg.relMark || sg.n == 0 {
			continue
		}
		ns := &segment{seq: sg.seq, buf: s.slab(len(sg.buf))}
		for off := 0; off < len(sg.buf); {
			ep, ln, payload, next, err := frameAt(sg.buf, off)
			if err != nil {
				ns = nil // never happens for self-written frames; keep as-is
				break
			}
			_ = ln
			if ep > lg.relMark {
				ns.buf = binary.AppendUvarint(ns.buf, ep)
				ns.buf = binary.AppendUvarint(ns.buf, uint64(len(payload)))
				ns.buf = append(ns.buf, payload...)
				if ns.n == 0 || ep < ns.lo {
					ns.lo = ep
				}
				if ep > ns.hi {
					ns.hi = ep
				}
				ns.n++
			}
			off = next
		}
		if ns == nil {
			continue
		}
		if sg.pins.Load() == 0 {
			s.free = append(s.free, sg.buf)
		}
		lg.sealed[i] = ns
		n++
	}
	if n > 0 {
		// seekHi is a prefix max; rebuild it after the rewrites.
		prev := uint64(0)
		for _, sg := range lg.sealed {
			if sg.hi > prev {
				prev = sg.hi
			}
			sg.seekHi = prev
		}
	}
	return n
}

// BytesWritten implements Device.
func (s *SegStore) BytesWritten() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.bytes))
	for k, v := range s.bytes {
		out[k] = v
	}
	return out
}

// Segments returns the named log's live segment count (active included).
func (s *SegStore) Segments(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	lg := s.logs[name]
	if lg == nil {
		return 0
	}
	return lg.live()
}

// Released returns how many of the named log's segments have been
// reclaimed so far.
func (s *SegStore) Released(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	lg := s.logs[name]
	if lg == nil {
		return 0
	}
	return lg.released
}

// frameAt decodes one record frame at off, returning the epoch, payload
// length, the payload view, and the next frame's offset.
func frameAt(buf []byte, off int) (ep, ln uint64, payload []byte, next int, err error) {
	ep, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return 0, 0, nil, 0, fmt.Errorf("storage: segment frame: bad epoch at %d", off)
	}
	off += n
	ln, n = binary.Uvarint(buf[off:])
	if n <= 0 {
		return 0, 0, nil, 0, fmt.Errorf("storage: segment frame: bad length at %d", off)
	}
	off += n
	if uint64(len(buf)-off) < ln {
		return 0, 0, nil, 0, fmt.Errorf("storage: segment frame: length %d overruns segment", ln)
	}
	return ep, ln, buf[off : off+int(ln)], off + int(ln), nil
}
