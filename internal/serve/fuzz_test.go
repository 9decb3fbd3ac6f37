package serve

import (
	"reflect"
	"testing"

	"morphstreamr/internal/types"
)

// FuzzDecodeFrame throws arbitrary payloads at the strict frame decoder:
// it must never panic, never allocate past the wire limits (hostile counts
// are checked against the remaining payload before allocation), and accept
// only frames that decode exactly. Decoding into a batch reused from the
// previous input — what a session does — must yield the same frame and
// verdict as a fresh decode.
func FuzzDecodeFrame(f *testing.F) {
	evs := []types.Event{
		{Seq: 9, Kind: 1, Keys: []types.Key{{Row: 3}, {Row: 5}}, Vals: []types.Value{int64(7)}},
		{Seq: 10, Kind: 2, Keys: []types.Key{{Table: 1, Row: 1}}, Vals: nil},
	}
	for _, wire := range [][]byte{
		EncodeHello("tenant"),
		EncodeHelloAck(12, 34),
		EncodeSubmit(3, evs),
		EncodeAck(4, 8),
		EncodeSlowdown(5, 100, SlowOrder),
		EncodeError(2, "unknown tenant"),
		EncodePing(),
		EncodePong(),
	} {
		// Seed with the frame payload (the part DecodeFrame sees).
		f.Add(wire[1:])
	}
	// Seeds that historically tripped naive decoders.
	f.Add([]byte{byte(FrameSubmit), 1, 0xff, 0xff, 0xff, 0xff, 0x0f}) // hostile count
	f.Add([]byte{byte(FrameHello), 0x7f})                             // length past end
	f.Add([]byte{})                                                   // empty

	dirty := new(batch)
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFrame(b)
		if into, intoErr := decodeFrame(b, dirty); !reflect.DeepEqual(into, fr) || (intoErr == nil) != (err == nil) {
			t.Fatalf("decode into a reused batch: %+v (%v), fresh decode: %+v (%v)", into, intoErr, fr, err)
		}
		if err != nil {
			return
		}
		if len(fr.Events) > MaxBatchEvents {
			t.Fatalf("decoded %d events past the batch limit", len(fr.Events))
		}
		if fr.Type == FrameSubmit {
			for _, ev := range fr.Events {
				if len(ev.Keys) == 0 {
					t.Fatal("accepted a keyless event")
				}
			}
		}
		if len(fr.Tenant) > MaxTenantName || len(fr.Msg) > maxErrorMsg {
			t.Fatalf("decoded oversized string: tenant=%d msg=%d", len(fr.Tenant), len(fr.Msg))
		}
	})
}

// FuzzDecodeIngestRecord covers the manifest decoders the recovery path
// trusts: arbitrary bytes must never panic or blow up allocation.
func FuzzDecodeIngestRecord(f *testing.F) {
	evs := []types.Event{{Seq: 1, Kind: 1, Keys: []types.Key{{Row: 2}}, Vals: []types.Value{int64(3)}}}
	f.Add(encodeIngestRecord([]ManifestEntry{{Tenant: "a", BatchSeq: 1, FirstSeq: 1, Events: 1}}, evs))
	f.Add(encodeIngestRecord(nil, nil))
	f.Add(encodeWatermarks(map[string]uint64{"a": 3, "b": 9}, 17))
	f.Add([]byte{0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, b []byte) {
		entries, _, err := decodeIngestRecord(b)
		if err == nil {
			for _, e := range entries {
				if len(e.Tenant) > MaxTenantName {
					t.Fatal("decoded oversized tenant name")
				}
			}
		}
		decodeWatermarks(b)
	})
}
