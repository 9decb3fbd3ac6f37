package serve

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"morphstreamr/internal/journey"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/types"
)

// Config assembles one Server.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// Backend is the processing engine (required). The server owns it
	// after New: it is fed from the pump goroutine and closed by Close.
	Backend Backend
	// Tenants declares the admission envelope per tenant; clients naming
	// an undeclared tenant are rejected at Hello.
	Tenants []TenantConfig

	// EpochEvery is the pump tick: at most one group epoch is fed per tick
	// (default 2ms). MaxEpochEvents caps one epoch's gathered events
	// (default 4096). MaxInflightEpochs bounds fed-but-uncommitted epochs —
	// the pump stops gathering rather than let ack debt grow without bound
	// (default 64).
	EpochEvery        time.Duration
	MaxEpochEvents    int
	MaxInflightEpochs int
	// GCEvery is the manifest GC cadence in committed epochs (default 256).
	GCEvery uint64

	// HelloTimeout bounds the wait for a connection's Hello (half-open
	// connections are shed without touching the accept loop; default 2s).
	// IdleTimeout bounds the wait for any subsequent frame (default 30s).
	// WriteTimeout bounds one outbound frame write (default 5s).
	HelloTimeout time.Duration
	IdleTimeout  time.Duration
	WriteTimeout time.Duration
	// AckBuffer is the per-session outbound frame buffer; a session that
	// cannot drain it — a slow consumer — is evicted, never allowed to
	// wedge the pump or grow the buffer (default 256).
	AckBuffer int
	// MaxFrame bounds one inbound frame (default DefaultMaxFrame).
	MaxFrame int

	// ShedBelow is the degradation threshold: while a heal is in flight,
	// Submits from tenants with Priority below it are answered with
	// Slowdown(degraded) instead of being queued (default 0: shed nobody).
	ShedBelow int
	// MaxHeals is the heal budget: every heal attempt spends one, a retried
	// one included, and an attempt past it turns the server terminal
	// (default 16).
	MaxHeals int

	// Obs, when non-nil, receives per-tenant gauges, ack-lag histograms,
	// the /tenants view, and — when it carries a Timeline — heal and
	// slowdown events for the /incidents view.
	Obs *obs.Observer
	// Journeys, when non-nil, traces sampled batches end-to-end: every
	// pipeline stage stamps the batch's journey, heals bracket a RECOVERY
	// stage, and completed journeys are drained via the recorder. Nil
	// disables tracing (the hot path pays one nil check per stage).
	Journeys *journey.Recorder
	// SLO, when non-nil, observes every acked batch's client-observed
	// lag (admission to ack flush) against its latency objective; the
	// server publishes it as the Obs view "slo" (the /slo endpoint).
	SLO *obs.SLOMonitor
	// AckLog, when non-nil, observes every acknowledgement decision
	// (tenant, batch sequence, assigned global range, covering epoch) —
	// the chaos harness's exactly-once audit trail. Called from the pump
	// goroutine, once per acked batch across all incarnations.
	AckLog func(tenant string, batchSeq, firstSeq, events, epoch uint64)
}

func (c *Config) normalize() error {
	if c.Backend == nil {
		return errors.New("serve: Backend is required")
	}
	if len(c.Tenants) == 0 {
		return errors.New("serve: at least one tenant is required")
	}
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.EpochEvery <= 0 {
		c.EpochEvery = 2 * time.Millisecond
	}
	if c.MaxEpochEvents <= 0 {
		c.MaxEpochEvents = 4096
	}
	if c.MaxInflightEpochs <= 0 {
		c.MaxInflightEpochs = 64
	}
	if c.GCEvery == 0 {
		c.GCEvery = 256
	}
	if c.HelloTimeout <= 0 {
		c.HelloTimeout = 2 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.AckBuffer <= 0 {
		c.AckBuffer = 256
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.MaxHeals <= 0 {
		c.MaxHeals = 16
	}
	return nil
}

// Server is the ingestion front-end. Start with New, stop with Close.
type Server struct {
	cfg Config
	ln  net.Listener
	be  Backend

	tenants map[string]*tenant
	order   []*tenant // feeding order: priority desc, then name
	// rows bounds admitted keys: rows[t] is table t's declared row count
	// (zero for an undeclared table). Nil when the backend declares none.
	rows []uint32

	// degraded is set from a backend failure until a heal succeeds;
	// admission sheds low-priority tenants. committed caches the backend's punctuation
	// frontier for lock-free reads off the pump goroutine.
	degraded  atomic.Bool
	committed atomic.Uint64

	// Pump-only state (single goroutine, no locks needed). fed holds every
	// fed epoch's batches, in feeding order, from the replay horizon on:
	// epochs above acked await their ack, and a heal re-reads the ones it
	// replays (healSource). epoch and ingest are the buffers each epoch's
	// event batch and ingest record are assembled in, reused every tick.
	// pending is the error of a heal that failed: the backend is still
	// crashed, and the next tick retries the heal with it.
	nextSeq       uint64
	fed           map[uint64][]*batch
	acked         uint64
	epoch         []types.Event
	ingest        ingestEncoder
	lastGC        uint64
	manifestFails int
	pending       error
	heals         atomic.Int64

	mu       sync.Mutex
	sessions map[*session]struct{}
	termErr  error // terminal pump error (heal budget exhausted)

	closeOnce sync.Once
	closedCh  chan struct{}
	wg        sync.WaitGroup
}

// New recovers the ingest state from the backend's coordinator device,
// binds the listener, and starts the accept loop and the feeding pump.
func New(cfg Config) (*Server, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	be := cfg.Backend
	st, err := RecoverIngest(be.Coord(), be.Epoch())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		be:       be,
		tenants:  map[string]*tenant{},
		nextSeq:  st.NextSeq,
		fed:      map[uint64][]*batch{},
		acked:    be.Epoch(), // what a previous incarnation fed is not ours to ack
		lastGC:   be.Committed(),
		sessions: map[*session]struct{}{},
		closedCh: make(chan struct{}),
	}
	now := time.Now()
	for _, tc := range cfg.Tenants {
		if tc.Name == "" || len(tc.Name) > MaxTenantName {
			ln.Close()
			return nil, fmt.Errorf("serve: bad tenant name %q", tc.Name)
		}
		if _, dup := s.tenants[tc.Name]; dup {
			ln.Close()
			return nil, fmt.Errorf("serve: duplicate tenant %q", tc.Name)
		}
		s.tenants[tc.Name] = newTenant(tc, st.Watermarks[tc.Name], now)
	}
	for _, t := range s.tenants {
		s.order = append(s.order, t)
	}
	sort.Slice(s.order, func(a, b int) bool {
		if s.order[a].cfg.Priority != s.order[b].cfg.Priority {
			return s.order[a].cfg.Priority > s.order[b].cfg.Priority
		}
		return s.order[a].cfg.Name < s.order[b].cfg.Name
	})
	if td, ok := be.(tableDecl); ok {
		s.rows = []uint32{}
		for _, sp := range td.Tables() {
			if int(sp.ID) >= len(s.rows) {
				s.rows = append(s.rows, make([]uint32, int(sp.ID)+1-len(s.rows))...)
			}
			s.rows[sp.ID] = sp.Rows
		}
	}
	s.committed.Store(be.Committed())
	s.registerObs()
	s.wg.Add(2)
	go s.acceptLoop()
	go s.pump()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Committed returns the cached committed punctuation frontier.
func (s *Server) Committed() uint64 { return s.committed.Load() }

// Degraded reports whether the backend is down: a heal is in flight or
// will be retried.
func (s *Server) Degraded() bool { return s.degraded.Load() }

// Heals returns how many backend heals the server has performed.
func (s *Server) Heals() int { return int(s.heals.Load()) }

// Err returns the terminal pump error, if the server failed.
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.termErr
}

// Tenant returns the named tenant's acked watermark and whether it exists.
func (s *Server) Tenant(name string) (uint64, bool) {
	t, ok := s.tenants[name]
	if !ok {
		return 0, false
	}
	return t.Watermark(), true
}

// Close stops the listener, evicts every session, stops the pump, and
// closes the backend. Unacked batches die with the server; their tenants'
// watermarks survive in the ingest manifest, so a restarted server dedupes
// re-sent survivors and re-feeds the rest.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.closedCh)
		s.ln.Close()
		s.mu.Lock()
		open := make([]*session, 0, len(s.sessions))
		for sess := range s.sessions {
			open = append(open, sess)
		}
		s.mu.Unlock()
		for _, sess := range open {
			sess.close()
		}
		s.wg.Wait()
		s.be.Close()
		// No ack will ever come for what is still in flight: finalize the
		// sampled journeys as shed so none is left orphaned.
		s.cfg.Journeys.ShedActive()
	})
}

// acceptLoop accepts connections until the listener closes. Per-connection
// work — including the Hello wait — happens on session goroutines, so a
// half-open connection never stalls accept.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closedCh:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		s.count("serve.accepted")
		newSession(s, conn)
	}
}

// addSession registers a live session; it reports false when the server is
// already closing (the session must shut itself down).
func (s *Server) addSession(sess *session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.closedCh:
		return false
	default:
	}
	s.sessions[sess] = struct{}{}
	s.gauge("serve.sessions", int64(len(s.sessions)))
	return true
}

func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sessions, sess)
	s.gauge("serve.sessions", int64(len(s.sessions)))
}

// registerObs publishes the serving layer's metrics and the /tenants view.
func (s *Server) registerObs() {
	o := s.cfg.Obs
	reg := o.Registry()
	if reg != nil {
		reg.GaugeFunc("serve.committed", func() int64 { return int64(s.committed.Load()) })
		reg.GaugeFunc("serve.degraded", func() int64 {
			if s.degraded.Load() {
				return 1
			}
			return 0
		})
		for _, t := range s.order {
			t := t
			reg.GaugeFunc("serve.tenant."+t.cfg.Name+".queue", func() int64 {
				return int64(t.stats().Queue)
			})
			reg.GaugeFunc("serve.tenant."+t.cfg.Name+".watermark", func() int64 {
				return int64(t.Watermark())
			})
		}
	}
	if s.cfg.SLO != nil {
		o.SetView("slo", func() any { return s.cfg.SLO.Snapshot() })
	}
	o.SetView("tenants", func() any {
		out := make([]tenantStats, 0, len(s.order))
		for _, t := range s.order {
			out = append(out, t.stats())
		}
		return map[string]any{
			"committed": s.committed.Load(),
			"degraded":  s.degraded.Load(),
			"tenants":   out,
		}
	})
}

// count and gauge are nil-safe registry helpers.
func (s *Server) count(name string) {
	if reg := s.cfg.Obs.Registry(); reg != nil {
		reg.Counter(name).Inc()
	}
}

func (s *Server) gauge(name string, v int64) {
	if reg := s.cfg.Obs.Registry(); reg != nil {
		reg.Gauge(name).Set(v)
	}
}

func (s *Server) observeAckLag(since time.Time) {
	if reg := s.cfg.Obs.Registry(); reg != nil {
		reg.Histogram("serve.ack_lag_seconds").ObserveSince(since)
	}
}

// timeline is the nil-safe incident timeline accessor.
func (s *Server) timeline() *obs.Timeline { return s.cfg.Obs.Timeline() }

// shardRouter is the optional backend capability the journey tracer uses
// to record which shards a sampled batch routed to.
type shardRouter interface {
	ShardOf(ev types.Event) int
}

// checkKeys refuses a Submit that addresses a key outside the application's
// tables before it is admitted or logged: the store would panic on it
// mid-epoch, and the ingest manifest would replay it on every restart.
func (s *Server) checkKeys(events []types.Event) error {
	if s.rows == nil {
		return nil
	}
	for i := range events {
		for _, k := range events[i].Keys {
			if int(k.Table) >= len(s.rows) || k.Row >= s.rows[k.Table] {
				return fmt.Errorf("%w: event %d key %v outside the application's tables", ErrBadFrame, i, k)
			}
		}
	}
	return nil
}

// tableDecl is the optional backend capability that declares the
// application's tables, which bound every admitted key.
type tableDecl interface {
	Tables() []types.TableSpec
}

// commitTimer is the optional backend capability exposing when an epoch
// was first covered by the committed frontier (the commit stage boundary).
type commitTimer interface {
	CommittedAt(ep uint64) (time.Time, bool)
}
