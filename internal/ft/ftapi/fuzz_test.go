package ftapi_test

import (
	"reflect"
	"testing"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/ft"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/scheduler"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/workload"
)

// realCommitRecords drives one logging mechanism through a few committed
// epochs — the way the engine would — and returns the LogFT records it
// wrote: real group-commit frames as corpus seeds, so the fuzzers start
// from the byte shapes recovery actually parses rather than synthetic
// minimal cases.
func realCommitRecords(kind ftapi.Kind) []storage.Record {
	dev := storage.NewMem()
	mech := ft.New(kind, dev, metrics.NewBytes(), msr.Default())
	p := workload.DefaultSLParams()
	p.Rows, p.Seed, p.AbortRatio = 64, 7, 0.2
	gen := workload.NewSL(p)
	st := store.New(gen.App().Tables())
	for epoch := uint64(1); epoch <= 4; epoch++ {
		events := workload.Batch(gen, 12)
		if err := dev.Append(storage.LogInput, storage.Record{Epoch: epoch}); err != nil {
			panic(err)
		}
		g := tpg.BuildEvents(gen.App(), events, st.Get)
		if _, err := scheduler.Run(g, st, scheduler.Options{Workers: 2}); err != nil {
			panic(err)
		}
		mech.SealEpoch(&ftapi.EpochResult{Epoch: epoch, Events: events, Graph: g, Workers: 2})
		if epoch%2 == 0 {
			if err := mech.Commit(epoch); err != nil {
				panic(err)
			}
		}
	}
	recs, err := dev.ReadLog(storage.LogFT)
	if err != nil {
		panic(err)
	}
	return recs
}

// seedGroups adds every real group frame plus torn and empty variants,
// mirroring the codec fuzz corpus convention.
func seedGroups(f *testing.F) {
	for _, kind := range []ftapi.Kind{ftapi.WAL, ftapi.DL, ftapi.LV, ftapi.MSR} {
		for _, rec := range realCommitRecords(kind) {
			f.Add(rec.Payload)
			f.Add(rec.Payload[:len(rec.Payload)/2])
			if len(rec.Payload) > 0 {
				f.Add(rec.Payload[:len(rec.Payload)-1])
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
}

// FuzzDecodeGroup: the group frame decoder never panics, and whatever it
// accepts survives an encode/decode round trip unchanged — the same
// contract the codec fuzzers enforce on the per-record formats.
func FuzzDecodeGroup(f *testing.F) {
	seedGroups(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		group, err := ftapi.DecodeGroup(b)
		if err != nil {
			return
		}
		again, err := ftapi.DecodeGroup(ftapi.EncodeGroup(group))
		if err != nil {
			t.Fatalf("re-decode of re-encoded group failed: %v", err)
		}
		if !reflect.DeepEqual(group, again) {
			t.Fatalf("group decode not idempotent:\n first: %+v\nsecond: %+v", group, again)
		}
	})
}

// FuzzDecodeCommitted: the committed-log walker never panics on arbitrary
// record payloads and preserves its structural invariants — a torn verdict
// only ever comes from the tail record with a nil error, and the committed
// watermark never moves below the snapshot.
func FuzzDecodeCommitted(f *testing.F) {
	seedGroups(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		valid := ftapi.EncodeGroup([]ftapi.EpochPayload{{Epoch: 2, Payload: codec.EncodeWAL(nil)}})
		cases := [][]storage.Record{
			{{Epoch: 2, Payload: b}},                             // lone record: decode failures are a torn tail
			{{Epoch: 2, Payload: b}, {Epoch: 4, Payload: valid}}, // non-tail: failures are corruption
		}
		const snapEpoch = 1
		for i, recs := range cases {
			groups, committed, torn, err := ftapi.DecodeCommittedCursor(storage.NewSliceCursor(recs, 0), snapEpoch,
				func(epoch uint64, payload []byte) ([]codec.WALRecord, error) {
					return codec.DecodeWAL(payload)
				})
			if torn && err != nil {
				t.Fatalf("case %d: torn verdict with error: %v", i, err)
			}
			if torn && i == 1 {
				t.Fatal("non-tail decode failure reported as torn")
			}
			if err != nil {
				continue
			}
			// Note: committed derives from the frames' inner epoch stamps,
			// which the decoder trusts (real logs never stamp past the record
			// epoch), so only the lower bound is structural.
			if committed < snapEpoch {
				t.Fatalf("case %d: committed %d below snapshot %d", i, committed, snapEpoch)
			}
			for _, g := range groups {
				if g.Lo > g.Hi || g.Hi > committed {
					t.Fatalf("case %d: group bounds [%d, %d] vs committed %d", i, g.Lo, g.Hi, committed)
				}
			}
		}
	})
}
