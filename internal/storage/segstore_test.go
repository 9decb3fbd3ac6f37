package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestSegStoreDevice(t *testing.T) {
	deviceContract(t, NewSegStore(SegConfig{}))
}

func TestSegStoreDeviceTinySegments(t *testing.T) {
	// A segment per record or two: the contract must hold across seals.
	deviceContract(t, NewSegStore(SegConfig{SegmentBytes: 24}))
}

// TestSegStoreSealAndIndex: records spill into sealed segments whose index
// entries carry the epoch bounds a seek needs.
func TestSegStoreSealAndIndex(t *testing.T) {
	s := NewSegStore(SegConfig{SegmentBytes: 32})
	for ep := uint64(1); ep <= 10; ep++ {
		if err := s.Append("log", Record{Epoch: ep, Payload: []byte("0123456789")}); err != nil {
			t.Fatal(err)
		}
	}
	idx := s.Index("log")
	if len(idx) < 3 {
		t.Fatalf("expected multiple segments at 32B cap, got %d", len(idx))
	}
	var prevSeq, prevSeek uint64
	total := uint64(0)
	for i, m := range idx {
		if m.Lo > m.Hi {
			t.Fatalf("segment %d: lo %d > hi %d", i, m.Lo, m.Hi)
		}
		if i > 0 && m.Seq <= prevSeq {
			t.Fatalf("segment %d: seq %d not increasing", i, m.Seq)
		}
		if m.SeekHi < m.Hi || m.SeekHi < prevSeek {
			t.Fatalf("segment %d: seekHi %d not a prefix max", i, m.SeekHi)
		}
		prevSeq, prevSeek = m.Seq, m.SeekHi
		total += m.Records
	}
	if total != 10 {
		t.Fatalf("index records = %d, want 10", total)
	}
}

// TestSegStoreSeek: a cursor from a mid-log epoch yields exactly the suffix,
// in order, without touching earlier records.
func TestSegStoreSeek(t *testing.T) {
	s := NewSegStore(SegConfig{SegmentBytes: 32})
	for ep := uint64(1); ep <= 20; ep++ {
		s.Append("log", Record{Epoch: ep, Payload: []byte{byte(ep)}})
	}
	for _, from := range []uint64{0, 1, 7, 19, 20, 99} {
		cur, err := s.ReadFrom("log", from)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := ReadAll(cur)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if from < 20 {
			want = int(20 - from)
		}
		if len(recs) != want {
			t.Fatalf("from %d: %d records, want %d", from, len(recs), want)
		}
		for i, rec := range recs {
			if rec.Epoch != from+uint64(i)+1 {
				t.Fatalf("from %d record %d: epoch %d", from, i, rec.Epoch)
			}
		}
	}
}

// TestSegStoreSeekNonMonotone: a log whose epochs dip (recovered
// incarnations re-append lower coordinator epochs) must still seek
// correctly — seekHi may overestimate, never skip.
func TestSegStoreSeekNonMonotone(t *testing.T) {
	s := NewSegStore(SegConfig{SegmentBytes: 24})
	epochs := []uint64{1, 2, 5, 6, 3, 4, 7, 2, 8, 9}
	for _, ep := range epochs {
		s.Append("log", Record{Epoch: ep, Payload: []byte("payload")})
	}
	for _, from := range []uint64{0, 2, 4, 6} {
		cur, _ := s.ReadFrom("log", from)
		recs, err := ReadAll(cur)
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for _, ep := range epochs {
			if ep > from {
				want = append(want, ep)
			}
		}
		if len(recs) != len(want) {
			t.Fatalf("from %d: %d records, want %d", from, len(recs), len(want))
		}
		for i, rec := range recs {
			if rec.Epoch != want[i] {
				t.Fatalf("from %d record %d: epoch %d, want %d", from, i, rec.Epoch, want[i])
			}
		}
	}
}

// TestSegStoreReleaseReclaims: releasing a covered prefix pops whole
// segments and reuses their slabs for new appends.
func TestSegStoreReleaseReclaims(t *testing.T) {
	s := NewSegStore(SegConfig{SegmentBytes: 32})
	for ep := uint64(1); ep <= 12; ep++ {
		s.Append("log", Record{Epoch: ep, Payload: []byte("0123456789")})
	}
	before := s.Segments("log")
	if err := s.ReleaseThrough("log", 8); err != nil {
		t.Fatal(err)
	}
	if s.Released("log") == 0 {
		t.Fatal("release reclaimed nothing")
	}
	if s.Segments("log") >= before {
		t.Fatalf("segments %d not reduced from %d", s.Segments("log"), before)
	}
	// Conservative retention: a straddling segment may keep records <= 8,
	// but the cursor filter hides them.
	cur, _ := s.ReadFrom("log", 8)
	recs, err := ReadAll(cur)
	if err != nil || len(recs) != 4 || recs[0].Epoch != 9 {
		t.Fatalf("post-release read: %d recs, %v", len(recs), err)
	}
}

// TestSegStoreBudget: a bounded ring refuses appends once live segments
// reach the cap, and accepts them again after a release.
func TestSegStoreBudget(t *testing.T) {
	s := NewSegStore(SegConfig{SegmentBytes: 24, MaxSegments: 3})
	var ep uint64
	for {
		ep++
		if err := s.Append("log", Record{Epoch: ep, Payload: []byte("0123456789")}); err != nil {
			if !errors.Is(err, ErrSegmentBudget) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		if ep > 1000 {
			t.Fatal("budget never enforced")
		}
	}
	if s.Segments("log") != 3 {
		t.Fatalf("live segments = %d, want 3", s.Segments("log"))
	}
	// A covering release frees the ring for reuse.
	if err := s.ReleaseThrough("log", ep); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("log", Record{Epoch: ep + 1, Payload: []byte("x")}); err != nil {
		t.Fatalf("append after release: %v", err)
	}
}

// TestSegStoreCursorPinsSurviveRelease: a cursor opened before a release
// still reads its snapshot — released slabs must not recycle under it.
func TestSegStoreCursorPinsSurviveRelease(t *testing.T) {
	s := NewSegStore(SegConfig{SegmentBytes: 24})
	for ep := uint64(1); ep <= 8; ep++ {
		s.Append("log", Record{Epoch: ep, Payload: []byte{byte(ep), byte(ep), byte(ep)}})
	}
	cur, _ := s.ReadFrom("log", 0)
	if err := s.Truncate("log", 8); err != nil {
		t.Fatal(err)
	}
	// Overwrite traffic that would reuse freed slabs if pins were ignored.
	for ep := uint64(9); ep <= 16; ep++ {
		s.Append("log", Record{Epoch: ep, Payload: []byte{0xFF, 0xFF, 0xFF}})
	}
	recs, err := ReadAll(cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 8 {
		t.Fatalf("pinned cursor lost records: %d", len(recs))
	}
	for i := 0; i < 8; i++ {
		if recs[i].Epoch != uint64(i+1) || recs[i].Payload[0] != byte(i+1) {
			t.Fatalf("record %d corrupted: %+v", i, recs[i])
		}
	}
}

// TestSegStoreCompaction: compaction rewrites straddling segments down to
// their live suffix, shrinking bytes while preserving the readable records.
func TestSegStoreCompaction(t *testing.T) {
	s := NewSegStore(SegConfig{SegmentBytes: 1 << 10})
	for ep := uint64(1); ep <= 100; ep++ {
		s.Append("log", Record{Epoch: ep, Payload: []byte("0123456789")})
	}
	// Everything lands in one active segment; seal it by overflow.
	for ep := uint64(101); ep <= 200; ep++ {
		s.Append("log", Record{Epoch: ep, Payload: []byte("0123456789")})
	}
	if err := s.ReleaseThrough("log", 150); err != nil {
		t.Fatal(err)
	}
	idxBefore := s.Index("log")
	if n := s.CompactNow("log"); n == 0 {
		t.Fatalf("no segments compacted (index %+v)", idxBefore)
	}
	var liveBytes, liveRecs uint64
	for _, m := range s.Index("log") {
		liveBytes += m.Bytes
		liveRecs += m.Records
	}
	var beforeBytes uint64
	for _, m := range idxBefore {
		beforeBytes += m.Bytes
	}
	if liveBytes >= beforeBytes {
		t.Fatalf("compaction did not shrink: %d -> %d bytes", beforeBytes, liveBytes)
	}
	cur, _ := s.ReadFrom("log", 150)
	recs, err := ReadAll(cur)
	if err != nil || len(recs) != 50 || recs[0].Epoch != 151 || recs[49].Epoch != 200 {
		t.Fatalf("post-compaction read: %d recs, %v", len(recs), err)
	}
}

// TestSegStoreInlineCompact: Compact=true compacts on every release.
func TestSegStoreInlineCompact(t *testing.T) {
	s := NewSegStore(SegConfig{SegmentBytes: 64, Compact: true})
	for ep := uint64(1); ep <= 30; ep++ {
		s.Append("log", Record{Epoch: ep, Payload: []byte("0123456789")})
	}
	if err := s.ReleaseThrough("log", 15); err != nil {
		t.Fatal(err)
	}
	for _, m := range s.Index("log") {
		if m.Hi > 15 && m.Lo <= 15 {
			t.Fatalf("straddling segment survived inline compaction: %+v", m)
		}
	}
	cur, _ := s.ReadFrom("log", 15)
	recs, _ := ReadAll(cur)
	if len(recs) != 15 || recs[0].Epoch != 16 {
		t.Fatalf("post-compaction suffix: %d recs", len(recs))
	}
}

// TestSegStoreConcurrentReadersAndWriters: cursors race appends and
// releases without corruption (run under -race in CI's store-smoke job).
func TestSegStoreConcurrentReadersAndWriters(t *testing.T) {
	s := NewSegStore(SegConfig{SegmentBytes: 128})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ep := uint64(1); ep <= 2000; ep++ {
			s.Append("log", Record{Epoch: ep, Payload: []byte(fmt.Sprintf("payload-%d", ep))})
			if ep%97 == 0 {
				s.ReleaseThrough("log", ep-50)
			}
		}
		close(stop)
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cur, err := s.ReadFrom("log", seed*100+uint64(i%50))
				if err != nil {
					t.Error(err)
					return
				}
				prev := uint64(0)
				for {
					rec, ok, err := cur.Next()
					if err != nil {
						t.Error(err)
						cur.Close()
						return
					}
					if !ok {
						break
					}
					_ = prev
					prev = rec.Epoch
				}
				cur.Close()
			}
		}(uint64(w))
	}
	wg.Wait()
	cur, _ := s.ReadFrom("log", 0)
	if _, err := ReadAll(cur); err != nil {
		t.Fatal(err)
	}
}

// TestSegStoreHookOrdering: the release path updates the index strictly
// before reusing any slab — the seam the crash sweep relies on.
func TestSegStoreHookOrdering(t *testing.T) {
	s := NewSegStore(SegConfig{SegmentBytes: 24})
	var events []string
	s.SetHook(func(event, log string) { events = append(events, event) })
	for ep := uint64(1); ep <= 8; ep++ {
		s.Append("log", Record{Epoch: ep, Payload: []byte("0123456789")})
	}
	if err := s.ReleaseThrough("log", 8); err != nil {
		t.Fatal(err)
	}
	sawIndex := -1
	for i, e := range events {
		if e == "release-index" && sawIndex < 0 {
			sawIndex = i
		}
		if e == "segment-reuse" && sawIndex < 0 {
			t.Fatalf("segment reused before index update: %v", events)
		}
	}
	if sawIndex < 0 {
		t.Fatalf("no release-index event: %v", events)
	}
}

// TestSegStoreOversizedRecord: a record larger than the segment cap gets a
// private segment and stays readable.
func TestSegStoreOversizedRecord(t *testing.T) {
	s := NewSegStore(SegConfig{SegmentBytes: 16})
	big := make([]byte, 100)
	for i := range big {
		big[i] = byte(i)
	}
	s.Append("log", Record{Epoch: 1, Payload: []byte("small")})
	s.Append("log", Record{Epoch: 2, Payload: big})
	s.Append("log", Record{Epoch: 3, Payload: []byte("small")})
	recs, err := s.ReadLog("log")
	if err != nil || len(recs) != 3 || len(recs[1].Payload) != 100 {
		t.Fatalf("oversized record: %d recs, %v", len(recs), err)
	}
}

// TestSegStoreThroughStack: a stack of wrappers (a Trace under a Faulty
// whose budget is never reached) preserves the seek and release
// capabilities down to a SegStore base.
func TestSegStoreThroughStack(t *testing.T) {
	base := NewSegStore(SegConfig{SegmentBytes: 32})
	trace := NewTrace(base)
	dev := NewFaulty(trace, 100)
	for ep := uint64(1); ep <= 12; ep++ {
		if err := dev.Append("log", Record{Epoch: ep, Payload: []byte("0123456789")}); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := ReadFrom(dev, "log", 9)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(cur)
	if err != nil || len(recs) != 3 || recs[0].Epoch != 10 {
		t.Fatalf("stacked seek: %d recs, %v", len(recs), err)
	}
	if err := Release(dev, "log", 8); err != nil {
		t.Fatal(err)
	}
	if base.Released("log") == 0 {
		t.Fatal("release did not reach the segment store through the stack")
	}
	if sites := trace.Sites(); len(sites) != 13 || sites[12].Op != "release" {
		t.Fatalf("trace saw %d writes, want 12 appends and the release", len(sites))
	}
}
