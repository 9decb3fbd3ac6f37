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

// servedPath is the rig the served-path pins drive: GS Submit frames of 64
// events go through the real path — a session's frame read, DecodeFrame and
// admission, then the pump's tick: ingest append, Group.ProcessEpoch on 2
// shards, barrier and ack flush — at 48 Submits, 3072 events, per epoch.
// The test ticks the pump itself, and the ingest manifest is GC'd every 8
// committed epochs, so its records are released within a short run as they
// are in a long one. coord is the coordinator's device.
type servedPath struct {
	srv     *Server
	c       *Client
	batches [][]types.Event // cycled
	next    int             // batches encoded
	fed     int             // batches fed
}

const servedPerEpoch = 48

func newServedPath(t *testing.T, coord storage.Device) *servedPath {
	seg := func() storage.Device { return storage.NewSegStore(storage.SegConfig{}) }
	srv := newTestServer(t, Config{Tenants: []TenantConfig{{Name: "a"}}, EpochEvery: time.Hour, GCEvery: 8}, shard.Config{
		GroupShape: types.GroupShape{RunShape: types.RunShape{Workers: 2}, Shards: 2},
		App:        workload.NewGSApp(4096), Kind: ftapi.MSR,
		Devices: []storage.Device{seg(), seg()}, CoordDev: coord,
	})
	p := workload.DefaultGSParams()
	p.Rows, p.Theta = 4096, 0
	gen := workload.NewGS(p)
	sp := &servedPath{srv: srv, c: dial(t, srv, "a"), batches: make([][]types.Event, 4*servedPerEpoch)}
	for i := range sp.batches {
		sp.batches[i] = workload.Batch(gen, 64)
	}
	return sp
}

// traffic encodes the next epoch's Submits as one write.
func (sp *servedPath) traffic() []byte {
	var w []byte
	for range servedPerEpoch {
		sp.next++
		w = append(w, EncodeSubmit(uint64(sp.next), sp.batches[sp.next%len(sp.batches)])...)
	}
	return w
}

// feed writes one epoch's traffic, ticks the pump once the Pong is back (a
// session handles its frames in order, so by then every Submit before it
// has been admitted) and checks that the tick acked them all.
func (sp *servedPath) feed(t *testing.T, traffic []byte) {
	if err := tickAfter(t, sp.srv, sp.c, traffic); err != nil {
		t.Fatal(err)
	}
	sp.fed += servedPerEpoch
	if wm, _ := sp.srv.Tenant("a"); wm != uint64(sp.fed) {
		t.Fatalf("acked through batch %d, want %d", wm, sp.fed)
	}
}

// TestServedPathAllocBudget holds the served epoch path to its allocation
// budget over 50 warm epochs of pre-encoded traffic. What stays is the
// devices' own copies (the ingest manifest, FT and frontier records, and
// the snapshot blobs) and a few per-epoch structures; outputs go to the
// group's sink from recycled engine memory, and everything whose lifetime
// ends at or before its epoch's commit, decoded batches included, is
// recycled.
func TestServedPathAllocBudget(t *testing.T) {
	const warm, measured, budget = 20, 50, 45
	sp := newServedPath(t, storage.NewSegStore(storage.SegConfig{}))
	epochs := make([][]byte, warm+measured)
	for ep := range epochs {
		epochs[ep] = sp.traffic()
	}
	var m0, m1 runtime.MemStats
	for ep, traffic := range epochs {
		if ep == warm {
			runtime.ReadMemStats(&m0)
		}
		sp.feed(t, traffic)
	}
	runtime.ReadMemStats(&m1)
	perEvent := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(measured*servedPerEpoch*64)
	t.Logf("served path: %.1f B/event allocated over %d warm epochs", perEvent, measured)
	if perEvent > budget {
		t.Fatalf("served path allocates %.1f B/event, budget %d", perEvent, budget)
	}
}

// TestServedPathAllocHeapSlope pins what the served path keeps: between warm
// epoch 300 and epoch 600 the live heap (after a collection) may grow by at
// most 2 B per event. Every durable log the path writes is released below
// the replay horizon, the frontier log included, so nothing grows by
// design. A host-side ledger of released outputs grew the heap by ~56 B per
// event, and the unreleased frontier log by ~8.
func TestServedPathAllocHeapSlope(t *testing.T) {
	const mid, end, slope = 300, 600, 2
	sp := newServedPath(t, storage.NewMem())
	live := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	var h0 int64
	for ep := 0; ep < end; ep++ {
		if ep == mid {
			h0 = live()
		}
		sp.feed(t, sp.traffic())
	}
	perEvent := float64(live()-h0) / float64((end-mid)*servedPerEpoch*64)
	t.Logf("served path: live heap +%.1f B/event", perEvent)
	if perEvent > slope {
		t.Fatalf("served path keeps %.1f B/event, want <= %d", perEvent, slope)
	}
}

// TestHealAllocIndependentOfManifestLength: a heal allocates for the epochs
// it replays, never for the length of the ingest manifest. A group-rung heal
// after 44 epochs and one after 252, with the manifest never released in
// between, allocate within 10% of each other: both kills land 4 epochs past
// a snapshot, so both heals replay the same span. So do two heals right
// after a cold start (RecoverGroupBackend, then New), which read that span
// from the manifest because the new pump never fed it.
func TestHealAllocIndependentOfManifestLength(t *testing.T) {
	heal := func(epochs int, cold bool) uint64 {
		sp := newServedPath(t, storage.NewSegStore(storage.SegConfig{}))
		sp.srv.cfg.GCEvery = 1 << 30
		for range epochs {
			sp.feed(t, sp.traffic())
		}
		if cold {
			sp.srv.Close()
			be, err := RecoverGroupBackend(sp.srv.be.(*GroupBackend).cfg)
			if err != nil {
				t.Fatal(err)
			}
			sp.srv = newTestServer(t, Config{Backend: be, Tenants: sp.srv.cfg.Tenants, EpochEvery: time.Hour, GCEvery: 1 << 30}, shard.Config{})
			sp.c = dial(t, sp.srv, "a")
		}
		sp.srv.be.(*GroupBackend).KillGroup()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if err := tickAfter(t, sp.srv, sp.c, sp.traffic()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if sp.srv.Heals() != 1 || sp.srv.be.Epoch() != uint64(epochs) {
			t.Fatalf("%d heals resumed at epoch %d, want one at %d", sp.srv.Heals(), sp.srv.be.Epoch(), epochs)
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	for _, cold := range []bool{false, true} {
		short, long := heal(44, cold), heal(252, cold)
		t.Logf("cold start %v: heal after 44 epochs: %d B; after 252: %d B", cold, short, long)
		if r := float64(long) / float64(short); r > 1.1 || r < 1/1.1 {
			t.Fatalf("cold start %v: a heal after 252 epochs allocates %.2fx one after 44", cold, r)
		}
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
