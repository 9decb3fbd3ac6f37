package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/journey"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// Chaos cells.
const (
	// CellSteady is the no-fault baseline.
	CellSteady = "steady"
	// CellKillHeal kills one shard mid-traffic, then the whole group.
	CellKillHeal = "kill-heal"
	// CellReconnectStorm repeatedly severs every client connection while a
	// shard kill lands mid-storm.
	CellReconnectStorm = "reconnect-storm"
	// CellSlowConsumer adds a rogue tenant that submits without reading
	// acks, exercising bounded ack buffers and eviction.
	CellSlowConsumer = "slow-consumer"
	// CellHalfOpen floods the server with connections that never Hello
	// (and some that send a truncated frame) while real traffic runs.
	CellHalfOpen = "half-open"
)

// Cells lists every chaos cell.
func Cells() []string {
	return []string{CellSteady, CellKillHeal, CellReconnectStorm, CellSlowConsumer, CellHalfOpen}
}

// ChaosConfig parameterizes one chaos run.
type ChaosConfig struct {
	Cell string
	Seed int64
	// Shards and Kind shape the backend (defaults 2 shards, WAL).
	Shards int
	Kind   ftapi.Kind
	// Tenants, Batches (per tenant), and BatchEvents shape the traffic
	// (defaults 3, 30, 8).
	Tenants     int
	Batches     int
	BatchEvents int
	// Timeout bounds the whole run (default 60s).
	Timeout time.Duration
	// Obs, when non-nil, observes the run (a fresh observer is created
	// otherwise so eviction/slowdown counters are always available).
	Obs *obs.Observer
	// Journeys, when non-nil, traces sampled batches end-to-end through
	// the run (see internal/journey); drained by the caller afterwards.
	Journeys *journey.Recorder
	// SLO, when non-nil, observes every acked batch's lag.
	SLO *obs.SLOMonitor
	// SampleFlagEvery, when > 0, makes every driver set the Submit
	// sampled flag on batch sequences divisible by it (the client-side
	// sampling path; server-side sampling comes from Journeys' config).
	SampleFlagEvery uint64
}

func (c *ChaosConfig) normalize() {
	if c.Cell == "" {
		c.Cell = CellSteady
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.Tenants <= 0 {
		c.Tenants = 3
	}
	if c.Batches <= 0 {
		c.Batches = 30
	}
	if c.BatchEvents <= 0 {
		c.BatchEvents = 8
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.Obs == nil {
		c.Obs = obs.NewObserver(1, 64)
	}
}

// AckRecord is one server-side acknowledgement decision.
type AckRecord struct {
	Tenant   string
	BatchSeq uint64
	FirstSeq uint64
	Events   uint64
	Epoch    uint64
	At       time.Time
}

// ChaosReport is one cell's outcome. Violations is the acceptance gate:
// zero means every acked batch was delivered exactly once across the
// backend's incarnations, no batch was acked twice, and every tenant's ack
// stream is contiguous.
type ChaosReport struct {
	Cell         string  `json:"cell"`
	Tenants      int     `json:"tenants"`
	Batches      int     `json:"batches_per_tenant"`
	AckedBatches int     `json:"acked_batches"`
	DupAcks      int     `json:"dup_acks"`
	ExactlyOnce  int     `json:"exactly_once_violations"`
	OrderViol    int     `json:"ack_order_violations"`
	Violations   int     `json:"violations"`
	Kills        int     `json:"kills"`
	Heals        int     `json:"heals"`
	Evictions    int64   `json:"evictions"`
	Slowdowns    int64   `json:"slowdowns"`
	Reconnects   int64   `json:"reconnects"`
	ClientMTTRMs float64 `json:"client_mttr_ms"`
	P50AckLagMs  float64 `json:"p50_ack_lag_ms"`
	P99AckLagMs  float64 `json:"p99_ack_lag_ms"`
	MaxQueue     int     `json:"max_queue_depth"`
	QueueCap     int     `json:"queue_cap"`
	WallMs       float64 `json:"wall_ms"`
	Err          string  `json:"err,omitempty"`
}

// ackAudit collects the server's acknowledgement decisions thread-safely.
type ackAudit struct {
	mu   sync.Mutex
	recs []AckRecord
}

func (a *ackAudit) add(r AckRecord) {
	a.mu.Lock()
	a.recs = append(a.recs, r)
	a.mu.Unlock()
}

func (a *ackAudit) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.recs)
}

func (a *ackAudit) all() []AckRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]AckRecord(nil), a.recs...)
}

// Chaos runs one cell: live traffic from concurrent tenant clients against
// a sharded backend while the cell's fault schedule fires, then a full
// exactly-once audit of every acknowledgement against the outputs
// delivered across all backend incarnations.
func Chaos(cfg ChaosConfig) (*ChaosReport, error) {
	cfg.normalize()
	start := time.Now()
	rep := &ChaosReport{Cell: cfg.Cell, Tenants: cfg.Tenants, Batches: cfg.Batches}

	rows := uint32(256 * cfg.Shards)
	app := workload.NewGSApp(rows)
	// Devices are created explicitly (not left for the group to default):
	// heal-time group recovery rebuilds from cfg's devices, which must be
	// the same ones the dead incarnation wrote.
	devs := make([]storage.Device, cfg.Shards)
	for i := range devs {
		devs[i] = storage.NewMem()
	}
	be, err := NewGroupBackend(shard.Config{
		GroupShape: types.GroupShape{
			RunShape: types.RunShape{Workers: 2, CommitEvery: 2, SnapshotEvery: 8},
			Shards:   cfg.Shards,
		},
		App:      app,
		Kind:     cfg.Kind,
		Devices:  devs,
		CoordDev: storage.NewMem(),
		Obs:      cfg.Obs,
	})
	if err != nil {
		return rep, err
	}

	audit := &ackAudit{}
	tenants := make([]TenantConfig, 0, cfg.Tenants)
	for i := 0; i < cfg.Tenants; i++ {
		tenants = append(tenants, TenantConfig{
			Name:     fmt.Sprintf("t%d", i),
			Priority: i,
			QueueCap: 64,
		})
	}
	ackBuffer := 256
	if cfg.Cell == CellSlowConsumer {
		tenants = append(tenants, TenantConfig{Name: "rogue", Priority: cfg.Tenants, QueueCap: 64})
		ackBuffer = 8
	}
	helloTimeout := 2 * time.Second
	if cfg.Cell == CellHalfOpen {
		helloTimeout = 100 * time.Millisecond
	}
	srv, err := New(Config{
		Backend:      be,
		Tenants:      tenants,
		EpochEvery:   time.Millisecond,
		ShedBelow:    1, // tenant t0 sheds while a heal is in flight
		AckBuffer:    ackBuffer,
		HelloTimeout: helloTimeout,
		MaxHeals:     16,
		Obs:          cfg.Obs,
		Journeys:     cfg.Journeys,
		SLO:          cfg.SLO,
		AckLog: func(tenant string, batchSeq, firstSeq, events, epoch uint64) {
			audit.add(AckRecord{
				Tenant: tenant, BatchSeq: batchSeq, FirstSeq: firstSeq,
				Events: events, Epoch: epoch, At: time.Now(),
			})
		},
	})
	if err != nil {
		be.Close()
		return rep, err
	}
	defer srv.Close()

	// Pre-generate each tenant's batch stream so reconnect replays are
	// byte-identical.
	drivers := make([]*chaosDriver, cfg.Tenants)
	for i := range drivers {
		gen := workload.NewGS(workload.GSParams{
			Seed: cfg.Seed + int64(i)*101, Rows: rows, Partitions: cfg.Shards,
			Theta: 0.6, Reads: 2, MultiPartitionRatio: 0.2,
		})
		batches := make([][]types.Event, cfg.Batches)
		for b := range batches {
			batches[b] = workload.Batch(gen, cfg.BatchEvents)
		}
		drivers[i] = newChaosDriver(srv.Addr(), fmt.Sprintf("t%d", i), batches)
		drivers[i].sampleEvery = cfg.SampleFlagEvery
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, d := range drivers {
		wg.Add(1)
		go func(d *chaosDriver) { defer wg.Done(); d.run(stop) }(d)
	}

	// Cell fault schedules run on the harness goroutine while traffic
	// flows; each returns the kill timestamps for MTTR attribution.
	var kills []time.Time
	totalBatches := cfg.Tenants * cfg.Batches
	progress := func(frac float64) bool {
		return waitFor(stop, cfg.Timeout, func() bool {
			return audit.count() >= int(frac*float64(totalBatches))
		})
	}
	switch cfg.Cell {
	case CellKillHeal:
		if progress(0.25) {
			kills = append(kills, time.Now())
			be.KillShard(1 % cfg.Shards)
		}
		if progress(0.55) {
			kills = append(kills, time.Now())
			be.KillGroup()
		}
	case CellReconnectStorm:
		// Arm the kill while most of the stream is still unacked — the
		// remaining batches guarantee future feeds, so the kill is consumed
		// and healed under live reconnect pressure.
		if progress(0.15) {
			kills = append(kills, time.Now())
			be.KillShard(1 % cfg.Shards)
		}
		for round := 0; round < 12 && audit.count() < totalBatches; round++ {
			for _, d := range drivers {
				d.sever()
			}
			time.Sleep(8 * time.Millisecond)
		}
	case CellSlowConsumer:
		wg.Add(1)
		go func() {
			defer wg.Done()
			runRogue(srv.Addr(), cfg.Batches, cfg.BatchEvents, rows, cfg.Seed, stop)
		}()
		if progress(0.3) {
			kills = append(kills, time.Now())
			be.KillShard(0)
		}
	case CellHalfOpen:
		// Kill early (most of the stream unacked guarantees the armed kill
		// is consumed by a live feed), then flood with connections that
		// never complete the handshake while the heal and traffic run.
		if progress(0.2) {
			kills = append(kills, time.Now())
			be.KillShard(1 % cfg.Shards)
		}
		var conns []*halfOpenConn
		for round := 0; round < 20; round++ {
			if c := dialHalfOpen(srv.Addr(), round%2 == 0); c != nil {
				conns = append(conns, c)
			}
			time.Sleep(5 * time.Millisecond)
		}
		defer func() {
			for _, c := range conns {
				c.close()
			}
		}()
	}

	// Wait for every declared tenant to finish its stream.
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(cfg.Timeout):
		close(stop)
		<-doneCh
		rep.Err = "chaos run timed out before all batches were acked"
	}
	if rep.Err == "" {
		close(stop)
	}
	srv.Close() // stops the pump; the backend is quiescent for the audit

	rep.Kills = len(kills)
	rep.Heals = srv.Heals()
	rep.WallMs = float64(time.Since(start)) / float64(time.Millisecond)
	if reg := cfg.Obs.Registry(); reg != nil {
		rep.Evictions = reg.Counter("serve.evictions").Value()
		rep.Slowdowns = reg.Counter("serve.slowdowns").Value()
	}
	for _, t := range srv.tenants {
		st := t.stats()
		if st.MaxQueue > rep.MaxQueue {
			rep.MaxQueue = st.MaxQueue
		}
		rep.QueueCap = st.QueueCap
	}

	audited := audit.all()
	rep.AckedBatches = len(audited)
	rep.DupAcks, rep.OrderViol = auditAckStream(audited)
	rep.ExactlyOnce = auditExactlyOnce(be, audited)
	rep.Violations = rep.DupAcks + rep.OrderViol + rep.ExactlyOnce

	// Client-observed recovery and latency.
	var lags []time.Duration
	var ackTimes []time.Time
	for _, d := range drivers {
		lags = append(lags, d.lags...)
		ackTimes = append(ackTimes, d.ackTimes...)
		rep.Reconnects += d.reconnects
	}
	// Interpolated percentiles via the shared obs helper — the old
	// index-truncation (`lags[n*99/100]`) reported the max at small n.
	if len(lags) > 0 {
		rep.P50AckLagMs = float64(obs.DurPercentile(lags, 0.50)) / float64(time.Millisecond)
		rep.P99AckLagMs = float64(obs.DurPercentile(lags, 0.99)) / float64(time.Millisecond)
	}
	sort.Slice(ackTimes, func(a, b int) bool { return ackTimes[a].Before(ackTimes[b]) })
	for _, k := range kills {
		for _, at := range ackTimes {
			if at.After(k) {
				if mttr := float64(at.Sub(k)) / float64(time.Millisecond); mttr > rep.ClientMTTRMs {
					rep.ClientMTTRMs = mttr
				}
				break
			}
		}
	}
	if rep.Err != "" {
		return rep, fmt.Errorf("serve: chaos %s: %s", cfg.Cell, rep.Err)
	}
	return rep, nil
}

// waitFor polls cond until true, stop, or deadline; reports cond's state.
func waitFor(stop <-chan struct{}, timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		select {
		case <-stop:
			return false
		case <-time.After(2 * time.Millisecond):
		}
	}
	return cond()
}

// auditAckStream checks the server's ack decisions: no batch acked twice,
// and every tenant's acked sequence stream contiguous from its first ack.
func auditAckStream(recs []AckRecord) (dups, orderViol int) {
	last := map[string]uint64{}
	seen := map[string]map[uint64]bool{}
	for _, r := range recs {
		if seen[r.Tenant] == nil {
			seen[r.Tenant] = map[uint64]bool{}
		}
		if seen[r.Tenant][r.BatchSeq] {
			dups++
			continue
		}
		seen[r.Tenant][r.BatchSeq] = true
		if prev, ok := last[r.Tenant]; ok && r.BatchSeq != prev+1 {
			orderViol++
		}
		last[r.Tenant] = r.BatchSeq
	}
	return dups, orderViol
}

// auditExactlyOnce verifies that every acked batch's assigned sequence
// range appears exactly once among the application outputs delivered
// across every backend incarnation — no premature ack (a batch acked but
// lost to a crash) and no duplicate delivery.
func auditExactlyOnce(be *GroupBackend, recs []AckRecord) int {
	counts := map[uint64]int{}
	for i := 0; i < be.Group().Shards(); i++ {
		for _, out := range be.AllDelivered(i) {
			counts[out.EventSeq]++
		}
	}
	violations := 0
	for _, r := range recs {
		for q := r.FirstSeq; q < r.FirstSeq+r.Events; q++ {
			if counts[q] != 1 {
				violations++
			}
		}
	}
	return violations
}
