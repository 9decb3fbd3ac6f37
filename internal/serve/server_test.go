package serve

import (
	"bufio"
	"cmp"
	"fmt"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

const testRows = uint32(512)

// newTestShardConfig builds a group config with explicit devices so a test
// can close the backend and recover a second one from the same storage.
func newTestShardConfig(shards int) shard.Config {
	devs := make([]storage.Device, shards)
	for i := range devs {
		devs[i] = storage.NewMem()
	}
	return shard.Config{
		GroupShape: types.GroupShape{
			RunShape: types.RunShape{Workers: 2, CommitEvery: 2, SnapshotEvery: 8},
			Shards:   shards,
		},
		App:      workload.NewGSApp(testRows),
		Kind:     ftapi.WAL,
		Devices:  devs,
		CoordDev: storage.NewMem(),
	}
}

func newTestServer(t *testing.T, cfg Config, shardCfg shard.Config) *Server {
	t.Helper()
	if cfg.Backend == nil {
		be, err := NewGroupBackend(shardCfg)
		if err != nil {
			t.Fatalf("NewGroupBackend: %v", err)
		}
		cfg.Backend = be
	}
	if cfg.EpochEvery == 0 {
		cfg.EpochEvery = time.Millisecond
	}
	srv, err := New(cfg)
	if err != nil {
		cfg.Backend.Close()
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// dial connects a client as tenant for the rest of the test.
func dial(t *testing.T, srv *Server, tenant string) *Client {
	t.Helper()
	c, err := Dial(srv.Addr(), tenant, 5*time.Second)
	if err != nil {
		t.Fatalf("Dial %s: %v", tenant, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func genBatches(seed int64, n, events int) [][]types.Event {
	gen := workload.NewGS(workload.GSParams{
		Seed: seed, Rows: testRows, Partitions: 2,
		Theta: 0.6, Reads: 2, MultiPartitionRatio: 0.2,
	})
	out := make([][]types.Event, n)
	for b := range out {
		out[b] = workload.Batch(gen, events)
	}
	return out
}

// submitAndDrain submits batches [from..to] and reads frames until every
// batch is acked (or the deadline passes).
func submitAndDrain(t *testing.T, c *Client, batches [][]types.Event, from, to uint64) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		if err := c.Submit(seq, batches[seq-1]); err != nil {
			t.Fatalf("Submit(%d): %v", seq, err)
		}
	}
	acked := from - 1
	deadline := time.Now().Add(10 * time.Second)
	for acked < to && time.Now().Before(deadline) {
		f, err := c.Next()
		if err != nil {
			t.Fatalf("Next: %v (acked %d of %d)", err, acked, to)
		}
		if f.Type == FrameAck && f.BatchSeq > acked {
			acked = f.BatchSeq
		}
	}
	if acked < to {
		t.Fatalf("timed out: acked %d of %d", acked, to)
	}
}

func TestAckFlowEndToEnd(t *testing.T) {
	srv := newTestServer(t, Config{Tenants: []TenantConfig{{Name: "a"}}}, newTestShardConfig(2))
	c := dial(t, srv, "a")
	if c.Watermark != 0 {
		t.Fatalf("fresh tenant watermark = %d, want 0", c.Watermark)
	}
	batches := genBatches(1, 5, 4)
	submitAndDrain(t, c, batches, 1, 5)
	if wm, ok := srv.Tenant("a"); !ok || wm != 5 {
		t.Fatalf("server watermark = %d/%v, want 5", wm, ok)
	}
}

func TestDuplicateAckOnReplay(t *testing.T) {
	srv := newTestServer(t, Config{Tenants: []TenantConfig{{Name: "a"}}}, newTestShardConfig(2))
	c := dial(t, srv, "a")
	batches := genBatches(2, 3, 4)
	submitAndDrain(t, c, batches, 1, 3)

	// Replaying an acked batch answers an immediate duplicate ack and never
	// feeds the batch again (the watermark dedupe path).
	if err := c.Submit(2, batches[1]); err != nil {
		t.Fatalf("replay Submit: %v", err)
	}
	f, err := c.Next()
	if err != nil {
		t.Fatalf("Next after replay: %v", err)
	}
	if f.Type != FrameAck || f.BatchSeq != 2 {
		t.Fatalf("replay answer = %+v, want Ack(2)", f)
	}
}

func TestOutOfOrderSubmit(t *testing.T) {
	srv := newTestServer(t, Config{Tenants: []TenantConfig{{Name: "a"}}}, newTestShardConfig(2))
	c := dial(t, srv, "a")
	batches := genBatches(3, 3, 4)
	if err := c.Submit(3, batches[2]); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	f, err := c.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if f.Type != FrameSlowdown || f.Reason != SlowOrder || f.BatchSeq != 1 {
		t.Fatalf("gap answer = %+v, want Slowdown(order, resend from 1)", f)
	}
}

func TestUnknownTenantRejected(t *testing.T) {
	srv := newTestServer(t, Config{Tenants: []TenantConfig{{Name: "a"}}}, newTestShardConfig(1))
	if _, err := Dial(srv.Addr(), "nobody", 2*time.Second); err == nil ||
		!strings.Contains(err.Error(), "hello rejected") {
		t.Fatalf("unknown tenant: got %v, want hello rejected", err)
	}
}

func TestExplicitBackpressureVerdicts(t *testing.T) {
	// A pump that effectively never runs keeps admitted batches queued, so
	// the rate and queue verdicts are deterministic.
	srv := newTestServer(t, Config{
		EpochEvery: time.Hour,
		Tenants: []TenantConfig{
			{Name: "rated", Rate: 0.001, Burst: 1},
			{Name: "queued", QueueCap: 1},
		},
	}, newTestShardConfig(1))
	batches := genBatches(4, 3, 2)

	rated := dial(t, srv, "rated")
	if err := rated.Submit(1, batches[0]); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := rated.Submit(2, batches[1]); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	f, err := rated.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if f.Type != FrameSlowdown || f.Reason != SlowRate || f.RetryAfterMs == 0 {
		t.Fatalf("rate verdict = %+v, want Slowdown(rate) with retry hint", f)
	}

	queued := dial(t, srv, "queued")
	if err := queued.Submit(1, batches[0]); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := queued.Submit(2, batches[1]); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	f, err = queued.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if f.Type != FrameSlowdown || f.Reason != SlowQueue {
		t.Fatalf("queue verdict = %+v, want Slowdown(queue)", f)
	}
}

func TestHalfOpenConnectionShed(t *testing.T) {
	srv := newTestServer(t, Config{
		HelloTimeout: 50 * time.Millisecond,
		Tenants:      []TenantConfig{{Name: "a"}},
	}, newTestShardConfig(1))

	// A connection that never says Hello is shed on HelloTimeout.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("half-open connection was not closed")
	}

	// And the accept loop is still serving real clients.
	dial(t, srv, "a")
}

func TestNonHelloFirstFrameRejected(t *testing.T) {
	srv := newTestServer(t, Config{Tenants: []TenantConfig{{Name: "a"}}}, newTestShardConfig(1))
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	if _, err := raw.Write(EncodePing()); err != nil {
		t.Fatalf("write: %v", err)
	}
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	payload, err := ReadFrame(bufio.NewReader(raw), DefaultMaxFrame)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	f, err := DecodeFrame(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if f.Type != FrameError || f.Code != errCodeHelloFirst {
		t.Fatalf("answer = %+v, want Error(hello first)", f)
	}
}

// TestColdRestartExactlyOnce kills the whole stack and recovers a second
// server from the surviving devices: the reconnecting client's replays are
// deduplicated against the recovered watermark, and new batches flow.
func TestColdRestartExactlyOnce(t *testing.T) {
	shardCfg := newTestShardConfig(2)
	type ackKey struct {
		tenant string
		seq    uint64
	}
	ackCounts := map[ackKey]int{}
	ackLog := func(tenant string, batchSeq, firstSeq, events, epoch uint64) {
		ackCounts[ackKey{tenant, batchSeq}]++
	}

	be, err := NewGroupBackend(shardCfg)
	if err != nil {
		t.Fatalf("NewGroupBackend: %v", err)
	}
	srv, err := New(Config{
		Backend: be, EpochEvery: time.Millisecond,
		Tenants: []TenantConfig{{Name: "a"}},
		AckLog:  ackLog,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	batches := genBatches(5, 8, 4)
	c := dial(t, srv, "a")
	submitAndDrain(t, c, batches, 1, 6)
	c.Close()
	srv.Close() // kills the listener, the pump, and the backend

	// Second incarnation: recover the group from the shard logs and the
	// ingest manifest, then a fresh server over it.
	be2, err := RecoverGroupBackend(shardCfg)
	if err != nil {
		t.Fatalf("RecoverGroupBackend: %v", err)
	}
	srv2, err := New(Config{
		Backend: be2, EpochEvery: time.Millisecond,
		Tenants: []TenantConfig{{Name: "a"}},
		AckLog:  ackLog,
	})
	if err != nil {
		t.Fatalf("New (recovered): %v", err)
	}
	defer srv2.Close()

	c2, err := Dial(srv2.Addr(), "a", 5*time.Second)
	if err != nil {
		t.Fatalf("Dial (recovered): %v", err)
	}
	defer c2.Close()
	if c2.Watermark != 6 {
		t.Fatalf("recovered watermark = %d, want 6", c2.Watermark)
	}
	// A replayed survivor is answered with a duplicate ack, not re-fed.
	if err := c2.Submit(4, batches[3]); err != nil {
		t.Fatalf("replay Submit: %v", err)
	}
	f, err := c2.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if f.Type != FrameAck || f.BatchSeq != 4 {
		t.Fatalf("replay answer = %+v, want Ack(4)", f)
	}
	// New traffic continues from the watermark.
	submitAndDrain(t, c2, batches, 7, 8)

	// The server-side audit trail saw each batch acked exactly once across
	// both incarnations (the duplicate ack above bypasses AckLog by design).
	for k, n := range ackCounts {
		if n != 1 {
			t.Errorf("batch %+v acked %d times across incarnations", k, n)
		}
	}
	if len(ackCounts) != 8 {
		t.Errorf("acked %d distinct batches, want 8", len(ackCounts))
	}
}

func TestRecoverIngestLatestRecordWins(t *testing.T) {
	dev := storage.NewMem()
	evs := genBatches(6, 1, 2)[0]
	// First incarnation appends epoch 1 claiming batch (a,1) with seqs 1..2,
	// then dies before feeding it. The second incarnation re-appends epoch 1
	// empty (it had nothing to feed there).
	rec1 := encodeIngestRecord([]ManifestEntry{{Tenant: "a", BatchSeq: 1, FirstSeq: 1, Events: 2}}, evs)
	if err := dev.Append(LogIngest, storage.Record{Epoch: 1, Payload: rec1}); err != nil {
		t.Fatal(err)
	}
	rec2 := encodeIngestRecord(nil, nil)
	if err := dev.Append(LogIngest, storage.Record{Epoch: 1, Payload: rec2}); err != nil {
		t.Fatal(err)
	}
	st, err := RecoverIngest(dev, 1)
	if err != nil {
		t.Fatalf("RecoverIngest: %v", err)
	}
	// The superseded record's batch was never fed: it must NOT count toward
	// the watermark, or the tenant's stream would have a hole.
	if st.Watermarks["a"] != 0 {
		t.Fatalf("watermark from superseded record: %d, want 0", st.Watermarks["a"])
	}
	// But its sequence assignment is burned: NextSeq must skip it.
	if st.NextSeq != 3 {
		t.Fatalf("NextSeq = %d, want 3 (superseded seqs are never reused)", st.NextSeq)
	}
	// The latest record is the authoritative epoch batch for recovery.
	if got := st.Epochs[1]; len(got) != 0 {
		t.Fatalf("epoch 1 batch = %d events, want 0 (latest record wins)", len(got))
	}
}

func TestRecoverIngestTornTail(t *testing.T) {
	dev := storage.NewMem()
	evs := genBatches(7, 1, 2)[0]
	rec := encodeIngestRecord([]ManifestEntry{{Tenant: "a", BatchSeq: 1, FirstSeq: 1, Events: 2}}, evs)
	if err := dev.Append(LogIngest, storage.Record{Epoch: 1, Payload: rec}); err != nil {
		t.Fatal(err)
	}
	// A torn final record — the append that died mid-write — is ignored.
	if err := dev.Append(LogIngest, storage.Record{Epoch: 2, Payload: []byte{0xff, 0x01, 0x02}}); err != nil {
		t.Fatal(err)
	}
	st, err := RecoverIngest(dev, 2)
	if err != nil {
		t.Fatalf("RecoverIngest with torn tail: %v", err)
	}
	if st.Watermarks["a"] != 1 || st.NextSeq != 3 {
		t.Fatalf("state = %+v, want watermark 1, next 3", st)
	}
	// The same corruption anywhere else in the log is a hard error.
	if err := dev.Append(LogIngest, storage.Record{Epoch: 3, Payload: rec}); err != nil {
		t.Fatal(err)
	}
	// Log is now: good(1), torn(2), good(3) — the torn record is no longer
	// the tail, so recovery must refuse rather than silently skip an epoch.
	if _, err := RecoverIngest(dev, 3); err == nil {
		t.Fatal("mid-log corruption: want error")
	}
}

func TestRecoverIngestFromBlob(t *testing.T) {
	dev := storage.NewMem()
	if err := dev.WriteBlob(BlobIngest, encodeWatermarks(map[string]uint64{"a": 7, "b": 2}, 42)); err != nil {
		t.Fatal(err)
	}
	st, err := RecoverIngest(dev, 100)
	if err != nil {
		t.Fatalf("RecoverIngest: %v", err)
	}
	if st.Watermarks["a"] != 7 || st.Watermarks["b"] != 2 || st.NextSeq != 42 {
		t.Fatalf("blob state = %+v", st)
	}
}

// healSourceProbe checks the pump's fed batches at every heal: they hold
// every epoch from the committed frontier on, each epoch they hold equals
// the durable ingest record of that epoch, event for event and in sequence
// order, and the heal reads no epoch below the frontier.
type healSourceProbe struct {
	*GroupBackend
	t     *testing.T
	asked int
}

func (p *healSourceProbe) Heal(procErr error, src types.Source) (uint64, error) {
	durable, err := IngestSource(p.Coord(), ^uint64(0))
	if err != nil {
		p.t.Error(err)
	}
	committed := p.Committed()
	for ep := uint64(1); ep <= p.Epoch()+1; ep++ {
		got, ok := src(ep)
		want, wok := durable(ep)
		if ok != (ep >= committed) || ok && (!wok || len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want))) {
			p.t.Errorf("epoch %d (committed %d): the pump holds %d events (%v), the manifest %d (%v)", ep, committed, len(got), ok, len(want), wok)
		}
	}
	return p.GroupBackend.Heal(procErr, func(ep uint64) ([]types.Event, bool) {
		if ep < committed {
			p.t.Errorf("heal read epoch %d below committed frontier %d", ep, committed)
		}
		p.asked++
		return src(ep)
	})
}

// TestHealSourceMatchesManifest drives traffic through a shard heal and a
// group heal while decoded batches are recycled below the committed
// frontier. The test ticks the pump itself, feeding each half of a phase's
// ten batches as one epoch so the committed epoch holds batches at every
// heal, and submits every batch twice (the copy is refused as a pending
// duplicate). The heals read only what the pump still holds (the probe),
// and afterwards every shard equals an oracle fed the client's own copies
// of the batches in the epochs they were acked in, with every acked batch
// delivered exactly once.
func TestHealSourceMatchesManifest(t *testing.T) {
	cfg := newTestShardConfig(2)
	ledgers := make(shard.Ledgers, 2)
	cfg.Sink = ledgers.Sink
	be, err := NewGroupBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var acks []AckRecord
	probe := &healSourceProbe{GroupBackend: be, t: t}
	srv := newTestServer(t, Config{Backend: probe, Tenants: []TenantConfig{{Name: "a"}}, EpochEvery: time.Hour,
		AckLog: func(tenant string, batchSeq, firstSeq, events, epoch uint64) {
			acks = append(acks, AckRecord{Tenant: tenant, BatchSeq: batchSeq, FirstSeq: firstSeq, Events: events, Epoch: epoch})
		}}, shard.Config{})
	c := dial(t, srv, "a")
	batches := genBatches(11, 30, 16)
	tick := func() {
		if err := srv.tick(); err != nil {
			t.Fatal(err)
		}
	}
	for i, kill := range []func(){func() {}, func() { be.KillShard(1) }, be.KillGroup} {
		kill()
		for from := uint64(10*i + 1); from <= uint64(10*i+6); from += 5 {
			var wire []byte
			for seq := from; seq < from+5; seq++ {
				frame := EncodeSubmit(seq, batches[seq-1])
				wire = append(append(wire, frame...), frame...)
			}
			if _, err := c.Conn().Write(append(wire, EncodePing()...)); err != nil {
				t.Fatal(err)
			}
			// Frames are handled in order: at the Pong, all are admitted.
			for f, err := (Frame{}), error(nil); f.Type != FramePong; f, err = c.Next() {
				if err != nil {
					t.Fatal(err)
				}
			}
			tick()
		}
		for n := 0; n < 4; n++ {
			if wm, _ := srv.Tenant("a"); wm < uint64(10*i+10) {
				tick()
			}
		}
	}
	srv.Close()
	if srv.Heals() != 2 || probe.asked == 0 {
		t.Fatalf("%d heals read %d epochs, want 2 heals reading some", srv.Heals(), probe.asked)
	}

	g := be.Group()
	epochs := make([][]types.Event, g.Epoch())
	for _, r := range acks {
		for i, ev := range batches[r.BatchSeq-1] {
			ev.Seq = r.FirstSeq + uint64(i)
			epochs[r.Epoch-1] = append(epochs[r.Epoch-1], ev)
		}
	}
	for _, evs := range epochs {
		slices.SortFunc(evs, func(a, b types.Event) int { return cmp.Compare(a.Seq, b.Seq) })
	}
	orc, err := shard.NewGroupOracle(cfg.App, g.Shards(), epochs)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < g.Shards(); s++ {
		if err := orc.CheckState(s, g.Epoch(), g.Engine(s).Store()); err != nil {
			t.Fatal(err)
		}
		if err := orc.CheckOutputs(s, g.Epoch(), &ledgers[s], g.Engine(s)); err != nil {
			t.Fatal(err)
		}
	}
	if dups, order := auditAckStream(acks); len(acks) != 30 || dups+order+auditExactlyOnce(be, acks) != 0 {
		t.Fatalf("%d acks: %d duplicate, %d out of order, exactly-once violations %d", len(acks), dups, order, auditExactlyOnce(be, acks))
	}
}

// TestOutOfRangeKeyRefused: a Submit addressing a row outside its table is
// refused at admission with an Error frame, before the ingest manifest logs
// it, so it can neither panic the engine mid-epoch nor replay on a restart.
// The other tenant keeps getting acks and nothing heals.
func TestOutOfRangeKeyRefused(t *testing.T) {
	cfg := newTestShardConfig(1)
	srv := newTestServer(t, Config{Tenants: []TenantConfig{{Name: "a"}, {Name: "b"}}}, cfg)
	batches := genBatches(12, 4, 4)
	a := dial(t, srv, "a")
	submitAndDrain(t, a, batches, 1, 1)

	bad := slices.Clone(batches[1])
	bad[0].Keys = slices.Clone(bad[0].Keys)
	bad[0].Keys[0].Row = 1 << 30
	if err := a.Submit(2, bad); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	f, err := a.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if f.Type != FrameError || !strings.Contains(f.Msg, "outside the application's tables") {
		t.Fatalf("bad batch answered %+v, want an Error frame naming the key", f)
	}

	b := dial(t, srv, "b")
	submitAndDrain(t, b, batches, 1, 4)
	if srv.Heals() != 0 || srv.Err() != nil {
		t.Fatalf("%d heals, terminal error %v; want none", srv.Heals(), srv.Err())
	}
	srv.Close()
	st, err := RecoverIngest(cfg.CoordDev, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	for ep, evs := range st.Epochs {
		for _, ev := range evs {
			for _, k := range ev.Keys {
				if k.Row >= testRows {
					t.Fatalf("manifest epoch %d logged event %d with key %v", ep, ev.Seq, k)
				}
			}
		}
	}
}

// stormRun serves 20 batches from one tenant, one epoch per batch, ticking
// the pump by hand, over a two-shard group whose shard 1 device fails its
// writes 12 through 12+n-1. It returns the ack log, the server, the backend
// and the first error a tick returned.
func stormRun(t *testing.T, kind ftapi.Kind, n, maxHeals int) ([]AckRecord, *Server, *GroupBackend, error) {
	t.Helper()
	cfg := newTestShardConfig(2)
	cfg.Kind = kind
	cfg.Devices[1] = storage.NewOutage(cfg.Devices[1], 12, n)
	be, err := NewGroupBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var acks []AckRecord
	srv := newTestServer(t, Config{Backend: be, Tenants: []TenantConfig{{Name: "a"}}, EpochEvery: time.Hour, MaxHeals: maxHeals,
		AckLog: func(tenant string, batchSeq, firstSeq, events, epoch uint64) {
			acks = append(acks, AckRecord{Tenant: tenant, BatchSeq: batchSeq, FirstSeq: firstSeq, Events: events, Epoch: epoch})
		}}, shard.Config{})
	c := dial(t, srv, "a")
	batches := genBatches(13, 20, 8)
	for seq := uint64(1); seq <= 20; seq++ {
		if _, err := c.Conn().Write(append(EncodeSubmit(seq, batches[seq-1]), EncodePing()...)); err != nil {
			t.Fatal(err)
		}
		for f, err := (Frame{}), error(nil); f.Type != FramePong; f, err = c.Next() {
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.tick(); err != nil {
			return acks, srv, be, err
		}
	}
	for i := 0; i < 40 && len(acks) < 20; i++ {
		if err := srv.tick(); err != nil {
			return acks, srv, be, err
		}
	}
	return acks, srv, be, nil
}

// TestWriteStormHealsInPlace: a storm of failing writes on one shard's
// device is healed in place on the served path. A heal the storm fails is
// retried on the next tick, so every batch is acked once and in order and
// delivered exactly once, within the heal budget. A storm that outlasts the
// budget still ends the server with "heal budget exhausted".
func TestWriteStormHealsInPlace(t *testing.T) {
	for _, kind := range []ftapi.Kind{ftapi.WAL, ftapi.MSR} {
		for _, n := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%v/storm=%d", kind, n), func(t *testing.T) {
				acks, srv, be, err := stormRun(t, kind, n, 0)
				if err != nil {
					t.Fatalf("tick: %v (acked %d)", err, len(acks))
				}
				srv.Close()
				dups, order := auditAckStream(acks)
				if len(acks) != 20 || dups+order+auditExactlyOnce(be, acks) != 0 {
					t.Fatalf("%d acks: %d duplicate, %d out of order, exactly-once violations %d", len(acks), dups, order, auditExactlyOnce(be, acks))
				}
				if srv.Heals() < 1 || srv.Heals() > srv.cfg.MaxHeals || srv.Degraded() {
					t.Fatalf("%d heals (budget %d), degraded %v", srv.Heals(), srv.cfg.MaxHeals, srv.Degraded())
				}
				t.Logf("%d heals", srv.Heals())
			})
		}
	}
	t.Run("past-budget", func(t *testing.T) {
		if _, _, _, err := stormRun(t, ftapi.WAL, 8, 2); err == nil || !strings.Contains(err.Error(), "heal budget exhausted") {
			t.Fatalf("a storm longer than the heal budget ended with %v, want the budget exhausted", err)
		}
	})
}
