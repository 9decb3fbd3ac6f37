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

// submitNext submits batch seq on c and returns the next frame c reads.
func submitNext(t *testing.T, c *Client, seq uint64, b []types.Event) Frame {
	t.Helper()
	if err := c.Submit(seq, b); err != nil {
		t.Fatalf("Submit(%d): %v", seq, err)
	}
	f, err := c.Next()
	if err != nil {
		t.Fatalf("Next after Submit(%d): %v", seq, err)
	}
	return f
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
	if f := submitNext(t, c, 2, batches[1]); f.Type != FrameAck || f.BatchSeq != 2 {
		t.Fatalf("replay answer = %+v, want Ack(2)", f)
	}
}

func TestOutOfOrderSubmit(t *testing.T) {
	srv := newTestServer(t, Config{Tenants: []TenantConfig{{Name: "a"}}}, newTestShardConfig(2))
	c := dial(t, srv, "a")
	batches := genBatches(3, 3, 4)
	if f := submitNext(t, c, 3, batches[2]); f.Type != FrameSlowdown || f.Reason != SlowOrder || f.BatchSeq != 1 {
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
	if f := submitNext(t, rated, 2, batches[1]); f.Type != FrameSlowdown || f.Reason != SlowRate || f.RetryAfterMs == 0 {
		t.Fatalf("rate verdict = %+v, want Slowdown(rate) with retry hint", f)
	}

	queued := dial(t, srv, "queued")
	if err := queued.Submit(1, batches[0]); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if f := submitNext(t, queued, 2, batches[1]); f.Type != FrameSlowdown || f.Reason != SlowQueue {
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

// ackRecorder is a Config.AckLog appending every decision to acks.
func ackRecorder(acks *[]AckRecord) func(string, uint64, uint64, uint64, uint64) {
	return func(tenant string, batchSeq, firstSeq, events, epoch uint64) {
		*acks = append(*acks, AckRecord{Tenant: tenant, BatchSeq: batchSeq, FirstSeq: firstSeq, Events: events, Epoch: epoch})
	}
}

// checkAcked checks every shard of g against an oracle fed the batches in
// the epochs they were acked in (the client's own copies, with the acked
// sequences), in sequence order: state, and exactly-once outputs as
// ledgers recorded them across the group's incarnations.
func checkAcked(t *testing.T, g *shard.Group, app types.App, batches [][]types.Event, acks []AckRecord, ledgers shard.Ledgers) {
	t.Helper()
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
	orc, err := shard.NewGroupOracle(app, g.Shards(), epochs)
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
}

// tickAfter writes wire and a Ping to c, and ticks srv's pump once the Pong
// is back: frames are handled in order, so by then every Submit is admitted.
func tickAfter(t *testing.T, srv *Server, c *Client, wire []byte) error {
	t.Helper()
	if _, err := c.Conn().Write(append(wire, EncodePing()...)); err != nil {
		t.Fatal(err)
	}
	for f, err := (Frame{}), error(nil); f.Type != FramePong; f, err = c.Next() {
		if err != nil {
			t.Fatal(err)
		}
	}
	return srv.tick()
}

// TestColdRestartExactlyOnce kills the whole stack and recovers a second
// server from the surviving devices (RecoverGroupBackend, then New): the
// reconnecting client's replays are deduplicated against the recovered
// watermark, and new batches flow. Its group is then killed before its next
// snapshot, and heals from epochs the first server fed, read from the ingest
// manifest because the new pump never held them. Every batch is acked once
// and in order, and delivered exactly once across the group's three
// incarnations.
func TestColdRestartExactlyOnce(t *testing.T) {
	cfg := newTestShardConfig(2)
	ledgers := make(shard.Ledgers, 2)
	cfg.Sink = ledgers.Sink
	var acks []AckRecord
	batches := genBatches(17, 14, 8)
	// run feeds batches from..to, one epoch each (killing the group before
	// the last when kill is set), then ticks until every one is acked.
	run := func(be *GroupBackend, from, to uint64, kill bool) *Server {
		srv := newTestServer(t, Config{Backend: be, Tenants: []TenantConfig{{Name: "a"}}, EpochEvery: time.Hour, AckLog: ackRecorder(&acks)}, shard.Config{})
		c := dial(t, srv, "a")
		if c.Watermark != from-1 {
			t.Fatalf("recovered watermark = %d, want %d", c.Watermark, from-1)
		}
		if from > 1 { // a replayed survivor is answered with a duplicate ack, not re-fed
			if f := submitNext(t, c, from-1, batches[from-2]); f.Type != FrameAck || f.BatchSeq != from-1 {
				t.Fatalf("replay answer = %+v, want Ack(%d)", f, from-1)
			}
		}
		for seq := from; seq <= to; seq++ {
			if kill && seq == to {
				be.KillGroup()
			}
			if err := tickAfter(t, srv, c, EncodeSubmit(seq, batches[seq-1])); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8 && uint64(len(acks)) < to; i++ {
			if err := srv.tick(); err != nil {
				t.Fatal(err)
			}
		}
		srv.Close()
		return srv
	}
	be, err := NewGroupBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run(be, 1, 11, false)
	be2, err := RecoverGroupBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if be2.Horizon() >= be2.Epoch() || be2.Epoch()+2 >= 16 {
		t.Fatalf("recovered to epoch %d over horizon %d: want epochs to replay, and room before the snapshot at 16", be2.Epoch(), be2.Horizon())
	}
	if srv := run(be2, 12, 14, true); srv.Heals() != 1 {
		t.Fatalf("%d heals, want 1", srv.Heals())
	}
	checkAcked(t, be2.Group(), cfg.App, batches, acks, ledgers)
	if dups, order := auditAckStream(acks); len(acks) != 14 || dups+order != 0 {
		t.Fatalf("%d acks: %d duplicate, %d out of order", len(acks), dups, order)
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
// every epoch from the replay horizon through the interrupted one, each
// equal to the durable ingest record of that epoch, event for event and in
// sequence order, so the heal never falls back to the manifest; and the
// heal reads no epoch below the horizon.
type healSourceProbe struct {
	*GroupBackend
	t     *testing.T
	srv   *Server
	asked int
}

func (p *healSourceProbe) Heal(procErr error, src types.Source) (uint64, error) {
	durable, horizon := manifestSource(p.Coord()), p.Horizon()
	for ep := horizon; ep <= p.Epoch()+1; ep++ {
		_, fed := p.srv.fed[ep]
		got, _ := src(ep)
		want, wok := durable(ep)
		if ep > 0 && (!fed || !wok || len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want))) {
			p.t.Errorf("epoch %d (horizon %d): the pump holds %d events (%v), the manifest %d (%v)", ep, horizon, len(got), fed, len(want), wok)
		}
	}
	return p.GroupBackend.Heal(procErr, func(ep uint64) ([]types.Event, bool) {
		if ep < horizon {
			p.t.Errorf("heal read epoch %d below the replay horizon %d", ep, horizon)
		}
		p.asked++
		return src(ep)
	})
}

// TestHealSourceMatchesManifest drives traffic through a shard heal and a
// group heal while decoded batches are recycled below the replay horizon. The test ticks the pump itself, feeding each half of a phase's
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
		AckLog: ackRecorder(&acks)}, shard.Config{})
	probe.srv = srv
	c := dial(t, srv, "a")
	batches := genBatches(11, 30, 16)
	for i, kill := range []func(){func() {}, func() { be.KillShard(1) }, be.KillGroup} {
		kill()
		for from := uint64(10*i + 1); from <= uint64(10*i+6); from += 5 {
			var wire []byte
			for seq := from; seq < from+5; seq++ {
				frame := EncodeSubmit(seq, batches[seq-1])
				wire = append(append(wire, frame...), frame...)
			}
			if err := tickAfter(t, srv, c, wire); err != nil {
				t.Fatal(err)
			}
		}
		for n := 0; n < 4; n++ {
			if wm, _ := srv.Tenant("a"); wm >= uint64(10*i+10) {
				break
			} else if err := srv.tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.Close()
	if srv.Heals() != 2 || probe.asked == 0 {
		t.Fatalf("%d heals read %d epochs, want 2 heals reading some", srv.Heals(), probe.asked)
	}

	checkAcked(t, be.Group(), cfg.App, batches, acks, ledgers)
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
	if f := submitNext(t, a, 2, bad); f.Type != FrameError || !strings.Contains(f.Msg, "outside the application's tables") {
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
		AckLog: ackRecorder(&acks)}, shard.Config{})
	c := dial(t, srv, "a")
	batches := genBatches(13, 20, 8)
	for seq := uint64(1); seq <= 20; seq++ {
		if err := tickAfter(t, srv, c, EncodeSubmit(seq, batches[seq-1])); err != nil {
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
