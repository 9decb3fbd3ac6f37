package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"morphstreamr/internal/types"
)

// TestIngestRecordBytesPinned pins the ingest manifest record's encoding
// byte for byte. The expected values are the encoder's output at d3ce84e,
// before it stopped copying the event payload on its way into the record;
// the record is durable, so the bytes may not move with the copies.
func TestIngestRecordBytesPinned(t *testing.T) {
	events := func(first uint64, n int) []types.Event {
		evs := make([]types.Event, n)
		for i := range evs {
			seq := first + uint64(i)
			evs[i] = types.Event{
				Seq: seq, Kind: types.EventKind(i % 3),
				Keys: []types.Key{{Table: types.TableID(i % 2), Row: uint32(seq * 7)}, {Table: 1, Row: uint32(i)}},
				Vals: []types.Value{int64(seq) - 3, -int64(i)},
			}
		}
		return evs
	}
	cases := []struct {
		name    string
		entries []ManifestEntry
		events  []types.Event
		want    string // hex of the record when short, else "sha256:" + digest
	}{
		{"heartbeat", nil, nil, "4d534d310106696e676573740000000100"},
		{"empty-events", nil, []types.Event{}, "4d534d310106696e676573740000000100"},
		{"one-batch", []ManifestEntry{{Tenant: "a", BatchSeq: 1, FirstSeq: 1, Events: 2}}, events(1, 2), "4d534d310106696e67657374000001016103010102150201000200070100020300020102010e0101020101"},
		{"two-tenants", []ManifestEntry{
			{Tenant: "tenant-0", BatchSeq: 9, FirstSeq: 1000, Events: 64},
			{Tenant: "tenant-1", BatchSeq: 300, FirstSeq: 1064, Events: 36},
		}, events(1000, 100), "sha256:cfae58ca0189c2d66d50e22c5730441159c7c4fd3b7b5efc41073ed3ab42778a"},
	}
	for _, tc := range cases {
		rec := encodeIngestRecord(tc.entries, tc.events)
		got := hex.EncodeToString(rec)
		if len(rec) > 96 {
			sum := sha256.Sum256(rec)
			got = "sha256:" + hex.EncodeToString(sum[:])
		}
		if got != tc.want {
			t.Errorf("%s: record bytes\n got %s\nwant %s", tc.name, got, tc.want)
		}
		entries, evs, err := decodeIngestRecord(rec)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if len(entries) != len(tc.entries) || (len(entries) > 0 && !reflect.DeepEqual(entries, tc.entries)) {
			t.Errorf("%s: entries round-trip: got %+v want %+v", tc.name, entries, tc.entries)
		}
		if len(evs) != len(tc.events) || (len(evs) > 0 && !reflect.DeepEqual(evs, tc.events)) {
			t.Errorf("%s: events round-trip diverges", tc.name)
		}
	}
}
