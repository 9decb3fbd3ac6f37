package layers

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"morphstreamr/internal/journey"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/serve"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
)

// Session is one traced run: the span store and everything that writes to
// it.
type Session struct {
	T     *Tracer
	rec   *journey.Recorder
	cause atomic.Int64 // span in progress on the pump or the fixture, -1 for none
}

// NewSession starts an empty traced run.
func NewSession() *Session {
	s := &Session{
		T: &Tracer{},
		// Every 16th batch is followed, the same batches the generator
		// samples. A 60 s saturate run completes about 30k journeys.
		rec: journey.NewRecorder(journey.Config{SampleEvery: 16, MaxDone: 1 << 16}),
	}
	s.cause.Store(-1)
	return s
}

// Device wraps a device of the run in the timing decorator.
func (s *Session) Device(_ string, d storage.Device) storage.Device {
	return &Device{inner: d, t: s.T, cause: &s.cause}
}

// Server puts the timing backend and the journey recorder into a server
// configuration.
func (s *Session) Server(cfg *serve.Config, be *serve.GroupBackend) {
	cfg.Backend = &Backend{GroupBackend: be, t: s.T, cause: &s.cause}
	cfg.Journeys = s.rec
}

// Recovery runs one recovery of the fixture as a recovery span, so that
// the device reads inside it are its children.
func (s *Session) Recovery(fn func()) {
	start := time.Now()
	i := s.T.Add(Span{Layer: Recovery, Name: "fixture", Start: start, Parent: -1})
	s.cause.Store(int64(i))
	fn()
	s.cause.Store(-1)
	s.T.SetDur(i, time.Since(start), 0)
}

// Input is what the runner hands over once the window is closed.
type Input struct {
	App     types.App
	Shards  int
	Workers int
	W0, W1  time.Time
	// Coord is the run's coordinator device, which holds the ingest
	// manifest the probes replay; Epoch is the last epoch fed.
	Coord storage.Device
	Epoch uint64
	// Group is the backend's last incarnation.
	Group *shard.Group
	// Ring is one connection's batches, for the frame probes.
	Ring [][]types.Event
	// AckP50Ms is the generator's median due → ack time.
	AckP50Ms float64
}

// Report turns the spans of the window and the probes into the per-layer
// metrics this package owns, and the layer budget table.
func (s *Session) Report(in Input) (map[string]float64, string, error) {
	spans := s.T.Spans()
	window := in.W1.Sub(in.W0).Seconds()
	m := map[string]float64{}

	// serve: journey stages of the sampled batches that ended in the window.
	recs, _ := s.rec.Drain()
	var inWindow []journey.Record
	for _, r := range recs {
		if !r.Shed && !r.End.Before(in.W0) && r.End.Before(in.W1) {
			inWindow = append(inWindow, r)
		}
	}
	sum := journey.Summarize(inWindow)
	stageSum := 0.0
	for name, st := range map[string]journey.Stage{
		"serve.admission_p50_ms": journey.StageAdmission, "serve.queue_p50_ms": journey.StageQueue,
		"serve.route_p50_ms": journey.StageRoute, "serve.execute_p50_ms": journey.StageExecute,
		"serve.commit_p50_ms": journey.StageCommit, "serve.ackflush_p50_ms": journey.StageAck,
		"serve.recovery_p50_ms": journey.StageRecovery,
	} {
		m[name] = sum.Stages[st].P50Ms
		if st != journey.StageRecovery {
			stageSum += m[name]
		}
	}
	s.journeySpans(inWindow)

	// serve: the pump's calls into the backend.
	feeds := Select(spans, Serve, "feed", in.W0, in.W1)
	beats := Select(spans, Serve, "heartbeat", in.W0, in.W1)
	if len(feeds) == 0 {
		return nil, "", fmt.Errorf("layers: no feed inside the window")
	}
	feedBusy, events := total(feeds)
	beatBusy, _ := total(beats)
	m["serve.feed_busy_ratio"] = (feedBusy + beatBusy).Seconds() / window
	m["serve.feed_ms_per_epoch"] = ms(feedBusy) / float64(len(feeds))
	m["serve.events_per_epoch"] = float64(events) / float64(len(feeds))
	m["serve.heartbeat_epoch_ratio"] = float64(len(beats)) / float64(len(feeds)+len(beats))
	heals := Select(spans, Recovery, "heal", in.W0, in.W1)
	m["serve.heals"] = float64(len(heals))
	m["serve.heal_p50_ms"] = p50ms(heals)

	// storage: the device decorator's spans.
	var appends, writes, releases []Span
	for _, sp := range Select(spans, Storage, "", in.W0, in.W1) {
		switch {
		case strings.HasPrefix(sp.Name, "append "):
			appends = append(appends, sp)
			writes = append(writes, sp)
		case strings.HasPrefix(sp.Name, "blob "):
			writes = append(writes, sp)
		case strings.HasPrefix(sp.Name, "release "):
			releases = append(releases, sp)
		}
	}
	_, appendBytes := total(appends)
	m["storage.appends_per_epoch"] = float64(len(appends)) / float64(len(feeds)+len(beats))
	m["storage.append_p50_us"] = p50ms(appends) * 1e3
	m["storage.append_busy_ratio"] = Covered(writes).Seconds() / window
	m["storage.b_per_append"] = float64(appendBytes) / float64(max(len(appends), 1))
	m["storage.releases"] = float64(len(releases))
	// engine: where the live engines say their time went.
	var io, tracking, sync, wall time.Duration
	for i := 0; i < in.Group.Shards(); i++ {
		e := in.Group.Engine(i)
		b := e.Runtime()
		io, tracking, sync = io+b.IO, tracking+b.Tracking, sync+b.Sync
		wall += e.TotalWall()
	}
	m["engine.io_ratio"] = ratio(io, wall)
	m["engine.tracking_ratio"] = ratio(tracking, wall)
	m["engine.sync_ratio"] = ratio(sync, wall)

	// Probes on the run's own inputs.
	t0 := time.Now()
	st, err := serve.RecoverIngest(in.Coord, in.Epoch)
	if err != nil {
		return nil, "", fmt.Errorf("layers: ingest manifest: %w", err)
	}
	m["serve.ingest_recover_ms"] = ms(time.Since(t0))
	epochs := lastEpochs(st.Epochs, in.Epoch)
	if len(epochs) == 0 {
		return nil, "", fmt.Errorf("layers: the ingest manifest holds no epoch to replay")
	}
	p, err := s.probe(in, epochs)
	if err != nil {
		return nil, "", err
	}
	for k, v := range p.vals {
		m[k] = v
	}

	// The layer budget: what one epoch of the window cost, live, against
	// what the probes say its parts cost.
	e := m["serve.events_per_epoch"]
	inFeed := ms(coveredBy(feeds, writes)) / float64(len(feeds))
	feed := m["serve.feed_ms_per_epoch"]
	replayed := m["shard.epoch_ns_per_event"] * e / 1e6
	m["serve.budget_residual_ratio"] = (feed - inFeed - replayed) / feed
	var b strings.Builder
	row := func(name string, v float64, src string) { fmt.Fprintf(&b, "  %-44s %10.4f ms  %s\n", name, v, src) }
	fmt.Fprintf(&b, "layer budget per epoch of %.1f events (%d feeds, %d heartbeats in the window)\n", e, len(feeds), len(beats))
	row("serve.feed, live", feed, "Backend decorator, wall per non-empty Feed")
	row("  storage writes inside the feed, live", inFeed, "Device decorator, union of appends and blobs")
	row("  feed minus storage, live", feed-inFeed, "")
	row("replayed epoch, probe", replayed, "shard.epoch_ns_per_event × events, bare SegStore")
	row("  partition route", m["partition.route_ns_per_event"]*e/1e6, "partition.Ranges.Of")
	row("  engine without fault tolerance", m["engine.nat_ns_per_event"]*e/1e6, "same replay, Kind NAT")
	row("    tpg build", m["tpg.build_ns_per_op"]*p.opsPerEvent*e/1e6, "App.Preprocess excluded")
	row("    scheduler run", m["scheduler.run_ns_per_op"]*p.opsPerEvent*e/1e6, fmt.Sprintf("%d workers; sequential %.4f ms", in.Workers, m["scheduler.seq_ns_per_op"]*p.opsPerEvent*e/1e6))
	row("  fault tolerance (MSR − NAT)", replayed-m["engine.nat_ns_per_event"]*e/1e6, "tracking, seal, encode, append")
	row("residual: feed − storage − replayed epoch", feed-inFeed-replayed, fmt.Sprintf("%.1f%% of the feed", 100*m["serve.budget_residual_ratio"]))
	row("journey: Σ stage p50", stageSum, fmt.Sprintf("%d journeys; generator ack p50 %.4f ms, residual %.4f ms", len(inWindow), in.AckP50Ms, in.AckP50Ms-stageSum))
	return m, b.String(), nil
}

// ReadMsPerRecovery is the time the fixture's recoveries spent inside the
// devices' read calls, per recovery.
func (s *Session) ReadMsPerRecovery() float64 {
	spans := s.T.Spans()
	fixtures := Select(spans, Recovery, "fixture", time.Time{}, time.Time{})
	var reads []Span
	for _, sp := range spans {
		if sp.Layer == Storage && strings.HasPrefix(sp.Name, "read ") {
			reads = append(reads, sp)
		}
	}
	return ms(coveredBy(fixtures, reads)) / float64(max(len(fixtures), 1))
}

// journeySpans lays every sampled journey out as a serve span with one
// child per stage. The recorder keeps stage lengths, not stage starts, so
// the stages follow one another in path order from the journey's start.
func (s *Session) journeySpans(recs []journey.Record) {
	for _, r := range recs {
		parent := s.T.Add(Span{Layer: Serve, Name: "journey " + r.Tenant, Start: r.Start, Dur: r.Total, Parent: -1, ID: r.Seq})
		at := r.Start
		for _, st := range journey.Stages() {
			if d := r.StageDurs[st]; d > 0 {
				s.T.Add(Span{Layer: Serve, Name: string(st), Start: at, Dur: d, Parent: parent, ID: r.Seq})
				at = at.Add(d)
			}
		}
	}
}

// ClientSpan records one sampled batch as the generator saw it.
func (s *Session) ClientSpan(lane int, seq uint64, due, ack time.Time) {
	s.T.Add(Span{Layer: Client, Name: fmt.Sprintf("batch t%d", lane), Start: due, Dur: ack.Sub(due), Parent: -1, ID: seq})
}

// RuntimeSpan records a window of the Go runtime's own accounting.
func (s *Session) RuntimeSpan(name string, start time.Time, d time.Duration, n int) {
	s.T.Add(Span{Layer: Runtime, Name: name, Start: start, Dur: d, Parent: -1, N: n})
}

// lastEpochs returns the most recent non-empty epochs of the manifest in
// feeding order, up to the probes' budget.
func lastEpochs(byEpoch map[uint64][]types.Event, last uint64) [][]types.Event {
	const maxEpochs, maxEvents = 256, 200_000
	var out [][]types.Event
	n := 0
	for ep := last; ep >= 1 && len(out) < maxEpochs && n < maxEvents; ep-- {
		ev, ok := byEpoch[ep]
		if !ok {
			break
		}
		if len(ev) > 0 {
			out = append(out, ev)
			n += len(ev)
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// coveredBy sums, over the parents, the time their children cover.
func coveredBy(parents, children []Span) time.Duration {
	byParent := map[int][]Span{}
	for _, c := range children {
		byParent[c.Parent] = append(byParent[c.Parent], c)
	}
	var total time.Duration
	for _, p := range parents {
		total += Covered(byParent[p.Index])
	}
	return total
}

func total(spans []Span) (d time.Duration, n int) {
	for _, sp := range spans {
		d += sp.Dur
		n += sp.N
	}
	return d, n
}

func p50ms(spans []Span) float64 {
	if len(spans) == 0 {
		return 0
	}
	ds := make([]float64, len(spans))
	for i, sp := range spans {
		ds[i] = ms(sp.Dur)
	}
	sort.Float64s(ds)
	return obs.Percentile(ds, 0.5)
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
