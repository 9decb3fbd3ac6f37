//go:build !race

// The race detector drops a random share of sync.Pool puts on purpose, so
// pooled paths allocate by design under it; these pins only hold without.

package serve

import (
	"runtime"
	"testing"
	"time"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// TestServedPathAllocBudget holds the served epoch path to its allocation
// budget. Pre-encoded GS Submit frames of 64 events go through the real
// path — a session's frame read, DecodeFrame and admission, then the pump's
// tick: ingest append, Group.ProcessEpoch on 2 shards, barrier and ack
// flush — at 3072 events per epoch. What stays is what the ledger keeps (an
// output per event) and the devices' own copies; everything whose lifetime
// ends at or before its epoch's commit, decoded batches included, is
// recycled.
func TestServedPathAllocBudget(t *testing.T) {
	const perEpoch, warm, measured, budget = 48, 20, 50, 130
	seg := func() storage.Device { return storage.NewSegStore(storage.SegConfig{}) }
	srv := newTestServer(t, Config{Tenants: []TenantConfig{{Name: "a"}}, EpochEvery: time.Hour}, shard.Config{
		GroupShape: types.GroupShape{RunShape: types.RunShape{Workers: 2}, Shards: 2},
		App:        workload.NewGSApp(4096), Kind: ftapi.MSR,
		Devices: []storage.Device{seg(), seg()}, CoordDev: seg(),
	}) // the test ticks the pump itself
	c := dial(t, srv, "a")
	p := workload.DefaultGSParams()
	p.Rows, p.Theta = 4096, 0
	gen := workload.NewGS(p)
	// Each epoch's traffic is one write: its Submits, then a Ping. A session
	// handles its frames in order, so once the Pong is back every Submit
	// before it has been admitted.
	epochs := make([][]byte, warm+measured)
	for ep := range epochs {
		for i := 1; i <= perEpoch; i++ {
			epochs[ep] = append(epochs[ep], EncodeSubmit(uint64(ep*perEpoch+i), workload.Batch(gen, 64))...)
		}
		epochs[ep] = append(epochs[ep], EncodePing()...)
	}
	var m0, m1 runtime.MemStats
	for ep, traffic := range epochs {
		if ep == warm {
			runtime.ReadMemStats(&m0)
		}
		if _, err := c.Conn().Write(traffic); err != nil {
			t.Fatal(err)
		}
		for f, err := (Frame{}), error(nil); f.Type != FramePong; f, err = c.Next() {
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.tick(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	if wm, _ := srv.Tenant("a"); wm != uint64(len(epochs)*perEpoch) {
		t.Fatalf("acked through batch %d, want %d", wm, len(epochs)*perEpoch)
	}
	perEvent := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(measured*perEpoch*64)
	t.Logf("served path: %.1f B/event allocated over %d warm epochs", perEvent, measured)
	if perEvent > budget {
		t.Fatalf("served path allocates %.1f B/event, budget %d", perEvent, budget)
	}
}

// TestSubmitDecodeAllocFree: a 64-event Submit decodes into a warm batch
// without allocating.
func TestSubmitDecodeAllocFree(t *testing.T) {
	payload := payloadOf(t, EncodeSubmit(1, genBatches(8, 1, 64)[0]))
	into := new(batch)
	if f, err := decodeFrame(payload, into); err != nil || len(f.Events) != 64 {
		t.Fatalf("decoded %d events: %v", len(f.Events), err)
	}
	if got := testing.AllocsPerRun(100, func() { decodeFrame(payload, into) }); got != 0 {
		t.Fatalf("Submit decode into a warm batch: %.1f allocs/op, want 0", got)
	}
}

// TestIngestRecordAllocFree: once its buffers have grown, the pump's ingest
// encoder builds a record without allocating.
func TestIngestRecordAllocFree(t *testing.T) {
	events := genBatches(9, 1, 512)[0]
	e := ingestEncoder{entries: []ManifestEntry{
		{Tenant: "a", BatchSeq: 7, FirstSeq: 1, Events: 256},
		{Tenant: "b", BatchSeq: 3, FirstSeq: 257, Events: 256},
	}}
	e.encode(events) // warm: grow the buffers once
	if got := testing.AllocsPerRun(100, func() { e.encode(events) }); got != 0 {
		t.Fatalf("ingest record into warm buffers: %.1f allocs/op, want 0", got)
	}
}
