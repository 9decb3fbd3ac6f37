package ftapi

import (
	"errors"
	"testing"

	"morphstreamr/internal/storage"
)

// groupRec frames one commit group holding raw per-epoch payloads.
func groupRec(hi uint64, eps ...EpochPayload) storage.Record {
	return storage.Record{Epoch: hi, Payload: EncodeGroup(eps)}
}

// passthrough decodes an epoch payload as-is; it errors on a "bad" marker.
func passthrough(_ uint64, payload []byte) ([]byte, error) {
	if string(payload) == "bad" {
		return nil, errors.New("bad payload")
	}
	return payload, nil
}

func TestDecodeCommittedHappyPath(t *testing.T) {
	recs := []storage.Record{
		groupRec(2, EpochPayload{Epoch: 1, Payload: []byte("a")}, EpochPayload{Epoch: 2, Payload: []byte("b")}),
		groupRec(4, EpochPayload{Epoch: 3, Payload: []byte("c")}, EpochPayload{Epoch: 4, Payload: []byte("d")}),
	}
	groups, committed, torn, err := DecodeCommittedCursor(storage.NewSliceCursor(recs, 0), 0, 0, passthrough)
	if err != nil || torn {
		t.Fatalf("err=%v torn=%v", err, torn)
	}
	if committed != 4 || len(groups) != 2 {
		t.Fatalf("committed=%d groups=%d", committed, len(groups))
	}
	if groups[0].Lo != 1 || groups[0].Hi != 2 || groups[1].Lo != 3 || groups[1].Hi != 4 {
		t.Fatalf("group bounds: %+v", groups)
	}
	if string(groups[1].Epochs[0].Recs) != "c" {
		t.Fatalf("epoch payload = %q", groups[1].Epochs[0].Recs)
	}
}

func TestDecodeCommittedSkipsCoveredAndCapped(t *testing.T) {
	recs := []storage.Record{
		groupRec(2, EpochPayload{Epoch: 2, Payload: []byte("covered")}),
		groupRec(4, EpochPayload{Epoch: 4, Payload: []byte("live")}),
		groupRec(6, EpochPayload{Epoch: 6, Payload: []byte("beyond-limit")}),
	}
	groups, committed, torn, err := DecodeCommittedCursor(storage.NewSliceCursor(recs, 0), 2, 4, passthrough)
	if err != nil || torn {
		t.Fatalf("err=%v torn=%v", err, torn)
	}
	if committed != 4 || len(groups) != 1 || groups[0].Hi != 4 {
		t.Fatalf("committed=%d groups=%+v", committed, groups)
	}
}

// TestDecodeCommittedTornTail: a tail record that fails group framing or
// the mechanism decode is discarded whole; committed stays behind it.
func TestDecodeCommittedTornTail(t *testing.T) {
	intact := groupRec(2, EpochPayload{Epoch: 1, Payload: []byte("a")}, EpochPayload{Epoch: 2, Payload: []byte("b")})

	full := groupRec(4, EpochPayload{Epoch: 3, Payload: []byte("cc")}, EpochPayload{Epoch: 4, Payload: []byte("dd")})
	for cut := 0; cut < len(full.Payload); cut++ {
		tornRec := storage.Record{Epoch: 4, Payload: full.Payload[:cut]}
		groups, committed, torn, err := DecodeCommittedCursor(storage.NewSliceCursor([]storage.Record{intact, tornRec}, 0), 0, 0, passthrough)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !torn {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
		if committed != 2 || len(groups) != 1 {
			t.Fatalf("cut %d: committed=%d groups=%d; torn group must be dropped whole", cut, committed, len(groups))
		}
	}

	// Mechanism-level decode failure in the tail is also a torn group.
	badTail := groupRec(4, EpochPayload{Epoch: 3, Payload: []byte("ok")}, EpochPayload{Epoch: 4, Payload: []byte("bad")})
	groups, committed, torn, err := DecodeCommittedCursor(storage.NewSliceCursor([]storage.Record{intact, badTail}, 0), 0, 0, passthrough)
	if err != nil || !torn || committed != 2 || len(groups) != 1 {
		t.Fatalf("decode-failure tail: groups=%d committed=%d torn=%v err=%v", len(groups), committed, torn, err)
	}

	// An empty (dropped-tail) record is likewise discarded.
	empty := storage.Record{Epoch: 4}
	_, committed, torn, err = DecodeCommittedCursor(storage.NewSliceCursor([]storage.Record{intact, empty}, 0), 0, 0, passthrough)
	if err != nil || !torn || committed != 2 {
		t.Fatalf("dropped tail: committed=%d torn=%v err=%v", committed, torn, err)
	}
}

// TestDecodeCommittedMidLogCorruption: the torn-tail tolerance must not
// mask corruption before the final record.
func TestDecodeCommittedMidLogCorruption(t *testing.T) {
	good := groupRec(2, EpochPayload{Epoch: 2, Payload: []byte("x")})
	corrupt := storage.Record{Epoch: 4, Payload: []byte{0xff, 0x01, 0x02}}
	if _, _, _, err := DecodeCommittedCursor(storage.NewSliceCursor([]storage.Record{corrupt, good}, 0), 0, 0, passthrough); err == nil {
		t.Fatal("mid-log corruption went undetected")
	}
	badMid := groupRec(4, EpochPayload{Epoch: 4, Payload: []byte("bad")})
	if _, _, _, err := DecodeCommittedCursor(storage.NewSliceCursor([]storage.Record{badMid, good}, 0), 0, 0, passthrough); err == nil {
		t.Fatal("mid-log decode failure went undetected")
	}
}
