package vtime

import (
	"fmt"
	"sort"
	"time"
)

// SpanKind classifies one profiler span on a virtual worker's timeline.
type SpanKind uint8

const (
	// SpanExec is time performing state accesses (committed work).
	SpanExec SpanKind = iota
	// SpanExplore is scheduling/synchronisation overhead (dequeue,
	// dependency bookkeeping, cross-worker resolution, vector probing).
	SpanExplore
	// SpanAbort is execution time spent on aborted transactions.
	SpanAbort
	// SpanPhaseWork is bulk phase work outside the operation-level replay:
	// log decoding, sorting, graph rebuilding, view indexing. Serial
	// phases occupy every lane for their wall length; spread phases divide
	// aggregate thread-time evenly across lanes.
	SpanPhaseWork
	// SpanStall is idle time, attributed to its cause via EdgeKind.
	SpanStall
)

// String returns the span kind's report name.
func (k SpanKind) String() string {
	switch k {
	case SpanExec:
		return "exec"
	case SpanExplore:
		return "explore"
	case SpanAbort:
		return "abort"
	case SpanPhaseWork:
		return "phase"
	case SpanStall:
		return "stall"
	default:
		return fmt.Sprintf("SpanKind(%d)", uint8(k))
	}
}

// EdgeKind attributes a stall to the dependency (or structural cause)
// that blocked the worker.
type EdgeKind uint8

const (
	// EdgeNone marks spans that are not stalls (and stalls with no cause).
	EdgeNone EdgeKind = iota
	// EdgeTD is a temporal dependency: the previous operation on the same
	// key's chain had not finished.
	EdgeTD
	// EdgeLD is a logical dependency: the transaction's condition
	// operation had not decided commit/abort.
	EdgeLD
	// EdgePD is a parametric dependency: a consumed value's producer had
	// not finished.
	EdgePD
	// EdgeTxn is a transaction-level logged dependency (DL's rebuilt
	// graph, which does not retain the fine-grained kind).
	EdgeTxn
	// EdgeVec is an LSN-vector dependency (LV's recovered-LSN polling).
	EdgeVec
	// EdgeSerial marks workers idled by a mechanism-imposed serial phase
	// (WAL's sequential redo).
	EdgeSerial
	// EdgeDrain is end-of-phase load imbalance: no work left for this
	// worker while another still runs.
	EdgeDrain
)

// String returns the edge kind's report name.
func (e EdgeKind) String() string {
	switch e {
	case EdgeNone:
		return "none"
	case EdgeTD:
		return "TD"
	case EdgeLD:
		return "LD"
	case EdgePD:
		return "PD"
	case EdgeTxn:
		return "DEP"
	case EdgeVec:
		return "VEC"
	case EdgeSerial:
		return "SERIAL"
	case EdgeDrain:
		return "DRAIN"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(e))
	}
}

// ProfSpan is one interval on a virtual worker's recovery timeline. Start
// is an offset on the profile-global virtual clock (phases concatenate).
type ProfSpan struct {
	Worker int           `json:"worker"`
	Kind   SpanKind      `json:"-"`
	Phase  int           `json:"phase"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	// Label identifies the unit of work ("t42.1" for an operation,
	// "ev1007" for a redo record, the phase name for phase work).
	Label string `json:"label"`
	// Edge and Blocker attribute a stall span: the dependency kind and
	// the unit that was still running.
	Edge    EdgeKind `json:"-"`
	Blocker string   `json:"blocker,omitempty"`
}

// WorkerTotals is one lane's time decomposition within a phase or across
// the whole profile.
type WorkerTotals struct {
	Exec      time.Duration `json:"exec_ns"`
	Explore   time.Duration `json:"explore_ns"`
	Abort     time.Duration `json:"abort_ns"`
	PhaseWork time.Duration `json:"phase_work_ns"`
	Stall     time.Duration `json:"stall_ns"`
}

// Busy is all non-idle time: execution, aborts, and bulk phase work.
func (w WorkerTotals) Busy() time.Duration { return w.Exec + w.Abort + w.PhaseWork }

// Total is the lane's full accounted time.
func (w WorkerTotals) Total() time.Duration { return w.Busy() + w.Explore + w.Stall }

func (w *WorkerTotals) add(o WorkerTotals) {
	w.Exec += o.Exec
	w.Explore += o.Explore
	w.Abort += o.Abort
	w.PhaseWork += o.PhaseWork
	w.Stall += o.Stall
}

// PhaseKind classifies how a recovery phase uses the machine.
type PhaseKind uint8

const (
	// PhaseParallel is an operation-level replay simulated on W lanes.
	PhaseParallel PhaseKind = iota
	// PhaseSerial is a single-threaded phase that blocks the whole
	// machine (every lane busy for the wall length — the ChargeSerial
	// convention).
	PhaseSerial
	// PhaseSpread is parallelizable bulk work charged as aggregate
	// thread-time and divided evenly across lanes.
	PhaseSpread
)

// String returns the phase kind's report name.
func (k PhaseKind) String() string {
	switch k {
	case PhaseParallel:
		return "parallel"
	case PhaseSerial:
		return "serial"
	case PhaseSpread:
		return "spread"
	default:
		return fmt.Sprintf("PhaseKind(%d)", uint8(k))
	}
}

// PhaseProfile summarises one recovery phase on the virtual timeline.
type PhaseProfile struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Start is the phase's offset on the profile-global virtual clock;
	// Makespan its virtual wall length.
	Start    time.Duration `json:"start_ns"`
	Makespan time.Duration `json:"makespan_ns"`
	// CritPath is the longest dependency path through the phase's work
	// under the cost model (serial and spread phases: the phase length).
	CritPath time.Duration `json:"critical_path_ns"`
	// Work is the aggregate thread-time of useful work (busy + explore).
	Work time.Duration `json:"work_ns"`
	// LowerBound is the list-scheduling lower bound on the phase
	// makespan: max(CritPath, Work/lanes). Makespan >= LowerBound always.
	LowerBound time.Duration `json:"lower_bound_ns"`
	// ActiveLanes counts lanes that performed any work in the phase; a
	// sequential redo shows exactly one.
	ActiveLanes int            `json:"active_lanes"`
	Lanes       []WorkerTotals `json:"lanes"`
}

// StallCause aggregates the stall time attributed to one (edge, blocker)
// pair — the "top stall-causing edges" of the report.
type StallCause struct {
	Edge    string        `json:"edge"`
	Blocker string        `json:"blocker"`
	Total   time.Duration `json:"total_ns"`
	Count   int64         `json:"count"`
}

// LaneProfile is one worker's whole-profile decomposition.
type LaneProfile struct {
	Worker int `json:"worker"`
	WorkerTotals
	Total time.Duration `json:"total_ns"`
}

// Profile is the complete recovery profile: the per-worker decomposition,
// the phase table, and the critical-path analysis. All durations are
// virtual-timebase nanoseconds (the axis of the cost model the recovery
// was priced with, vtime.FixedCosts).
type Profile struct {
	Workers int `json:"workers"`
	// Timeline is the total virtual recovery length: the sum of phase
	// makespans (device I/O wall time is reported separately in the
	// recovery breakdown and is not part of the virtual timeline).
	Timeline time.Duration `json:"timeline_ns"`
	// CritPath and LowerBound sum the per-phase values; CPRatio is
	// Timeline/LowerBound — 1.0 means the schedule is optimal under the
	// cost model, W means one worker did everything.
	CritPath   time.Duration  `json:"critical_path_ns"`
	LowerBound time.Duration  `json:"lower_bound_ns"`
	CPRatio    float64        `json:"cp_ratio"`
	Work       time.Duration  `json:"work_ns"`
	Lanes      []LaneProfile  `json:"lanes"`
	Phases     []PhaseProfile `json:"phases"`
	// StallByEdge totals stall time per attributed edge kind; TopStalls
	// ranks individual (edge, blocker) pairs.
	StallByEdge  map[string]time.Duration `json:"stall_by_edge_ns"`
	TopStalls    []StallCause             `json:"top_stalls"`
	Spans        int                      `json:"spans"`
	DroppedSpans uint64                   `json:"dropped_spans"`
}

// StallShare is the fraction of total lane-time spent stalled behind an
// attributed dependency or serialisation — a TD/LD/PD edge, a logged
// transaction dependency, an LSN-vector wait, or a mechanism-imposed
// serial phase. This is the quantity MorphStreamR's restructuring
// eliminates; end-of-phase load imbalance is reported separately by
// DrainShare.
func (p *Profile) StallShare() float64 {
	dep, _, total := p.stallSplit()
	if total == 0 {
		return 0
	}
	return float64(dep) / float64(total)
}

// DrainShare is the fraction of total lane-time lost to end-of-phase load
// imbalance (EdgeDrain): lanes idle because the phase's remaining work sat
// on other workers — a placement-granularity cost, not a dependency stall.
func (p *Profile) DrainShare() float64 {
	_, drain, total := p.stallSplit()
	if total == 0 {
		return 0
	}
	return float64(drain) / float64(total)
}

func (p *Profile) stallSplit() (dep, drain, total time.Duration) {
	for _, l := range p.Lanes {
		total += l.Total
	}
	for edge, d := range p.StallByEdge {
		if edge == EdgeDrain.String() {
			drain += d
		} else {
			dep += d
		}
	}
	return dep, drain, total
}

// Consistent verifies the accounting invariant: every lane's
// exec+explore+abort+phase+stall must equal the timeline exactly (integer
// virtual nanoseconds, so "exactly" means exactly).
func (p *Profile) Consistent() error {
	for _, l := range p.Lanes {
		if l.Total != p.Timeline {
			return fmt.Errorf("vtime: lane %d decomposition %v != timeline %v (exec=%v explore=%v abort=%v phase=%v stall=%v)",
				l.Worker, l.Total, p.Timeline, l.Exec, l.Explore, l.Abort, l.PhaseWork, l.Stall)
		}
	}
	return nil
}

// Phase returns the named phase profile, or nil.
func (p *Profile) Phase(name string) *PhaseProfile {
	for i := range p.Phases {
		if p.Phases[i].Name == name {
			return &p.Phases[i]
		}
	}
	return nil
}

// DefaultMaxSpans caps the profiler's span buffer; totals and the phase
// table keep accumulating after the cap, only the per-span timeline drops
// (counted in DroppedSpans, mirroring the obs tracer's accounting).
const DefaultMaxSpans = 1 << 20

type stallKey struct {
	edge    EdgeKind
	blocker string
}

type stallAgg struct {
	total time.Duration
	count int64
}

// phaseState is the open phase under construction.
type phaseState struct {
	name  string
	kind  PhaseKind
	cp    time.Duration // longest dependency path seen so far
	work  time.Duration
	lanes []WorkerTotals
	now   []time.Duration // per-lane virtual clock within the phase
}

// Profiler records per-worker virtual-timebase span events and critical
// path bounds while a recovery replay is priced. A nil *Profiler is the
// disabled profiler: every method is a cheap no-op, so the recovery path
// is instrumented unconditionally and pays only nil checks when profiling
// is off (the virtual clocks themselves are never affected — the profiler
// observes the simulation, it does not participate in it).
//
// Usage: the recovery driver brackets each parallel replay with BeginPhase
// and EndPhase(makespan); the pricing walks (SimulateGraphProf,
// SimulateTxnGraphProf, LV's replay loop) report each replayed unit via
// Op. Bulk phases charge through SerialPhase/SpreadPhase. Phases
// concatenate on one global virtual clock.
type Profiler struct {
	workers  int
	maxSpans int
	spans    []ProfSpan
	dropped  uint64
	base     time.Duration // global clock offset of the open phase
	phases   []PhaseProfile
	cur      *phaseState
	totals   []WorkerTotals
	stalls   map[stallKey]*stallAgg
}

// NewProfiler creates a profiler for the given worker count (lanes grow on
// demand if a replay uses more).
func NewProfiler(workers int) *Profiler {
	if workers < 1 {
		workers = 1
	}
	return &Profiler{
		workers:  workers,
		maxSpans: DefaultMaxSpans,
		totals:   make([]WorkerTotals, workers),
		stalls:   make(map[stallKey]*stallAgg),
	}
}

func (p *Profiler) growLane(w int) {
	for w >= p.workers {
		p.workers++
		p.totals = append(p.totals, WorkerTotals{})
		// A lane appearing mid-profile missed the earlier timeline; book
		// the gap as unattributed stall so the decomposition stays exact.
		var catchUp WorkerTotals
		catchUp.Stall = p.base
		p.totals[p.workers-1] = catchUp
		if p.cur != nil {
			p.cur.lanes = append(p.cur.lanes, WorkerTotals{})
			p.cur.now = append(p.cur.now, 0)
		}
	}
}

func (p *Profiler) emit(s ProfSpan) {
	if s.Dur <= 0 {
		return
	}
	if len(p.spans) >= p.maxSpans {
		p.dropped++
		return
	}
	p.spans = append(p.spans, s)
}

// BeginPhase opens a parallel replay phase; every lane's phase clock
// starts at zero (the phase begins on the global clock at the sum of all
// earlier phase makespans).
func (p *Profiler) BeginPhase(name string) {
	if p == nil {
		return
	}
	if p.cur != nil {
		// A phase left open is closed at its high-water lane time.
		p.EndPhase(p.curMax())
	}
	p.cur = &phaseState{
		name:  name,
		kind:  PhaseParallel,
		lanes: make([]WorkerTotals, p.workers),
		now:   make([]time.Duration, p.workers),
	}
}

func (p *Profiler) curMax() time.Duration {
	var mk time.Duration
	for _, n := range p.cur.now {
		if n > mk {
			mk = n
		}
	}
	return mk
}

// ensurePhase auto-opens an anonymous replay phase so a stray Op cannot
// panic the simulation.
func (p *Profiler) ensurePhase() {
	if p.cur == nil {
		p.BeginPhase("replay")
	}
}

// Op records one executed unit on lane w within the open parallel phase:
// a stall from the lane's clock to start (attributed to edge/blocker),
// explore overhead, then busy execution. ef is the unit's earliest
// possible finish with unbounded workers (max producer ef + minimal
// explore + busy), folded into the phase critical path. The lane clock
// mirrors the simulator's Clock exactly.
func (p *Profiler) Op(w int, label string, start, explore, busy time.Duration, abort bool, edge EdgeKind, blocker string, ef time.Duration) {
	if p == nil {
		return
	}
	p.ensurePhase()
	p.growLane(w)
	ph := p.cur
	if start > ph.now[w] {
		p.stall(w, ph.now[w], start-ph.now[w], edge, blocker)
		ph.now[w] = start
	}
	if explore > 0 {
		p.emit(ProfSpan{Worker: w, Kind: SpanExplore, Phase: len(p.phases),
			Start: p.base + ph.now[w], Dur: explore, Label: label})
		ph.lanes[w].Explore += explore
		ph.now[w] += explore
	}
	if busy > 0 {
		kind := SpanExec
		if abort {
			kind = SpanAbort
		}
		p.emit(ProfSpan{Worker: w, Kind: kind, Phase: len(p.phases),
			Start: p.base + ph.now[w], Dur: busy, Label: label})
		if abort {
			ph.lanes[w].Abort += busy
		} else {
			ph.lanes[w].Exec += busy
		}
		ph.now[w] += busy
	}
	ph.work += explore + busy
	if ef > ph.cp {
		ph.cp = ef
	}
}

func (p *Profiler) stall(w int, at, dur time.Duration, edge EdgeKind, blocker string) {
	p.emit(ProfSpan{Worker: w, Kind: SpanStall, Phase: len(p.phases),
		Start: p.base + at, Dur: dur, Edge: edge, Blocker: blocker, Label: "stall:" + edge.String()})
	p.cur.lanes[w].Stall += dur
	p.addStall(edge, blocker, dur)
}

func (p *Profiler) addStall(edge EdgeKind, blocker string, dur time.Duration) {
	key := stallKey{edge: edge, blocker: blocker}
	agg := p.stalls[key]
	if agg == nil {
		agg = &stallAgg{}
		p.stalls[key] = agg
	}
	agg.total += dur
	agg.count++
}

// StallUntil pads lane w to the given phase time with an attributed stall
// (WAL's idle workers during sequential redo).
func (p *Profiler) StallUntil(w int, until time.Duration, edge EdgeKind, blocker string) {
	if p == nil {
		return
	}
	p.ensurePhase()
	p.growLane(w)
	if until > p.cur.now[w] {
		p.stall(w, p.cur.now[w], until-p.cur.now[w], edge, blocker)
		p.cur.now[w] = until
	}
}

// EndPhase closes the open parallel phase at the given makespan: lanes
// short of it are padded with drain stalls (load imbalance), the phase
// lower bound is fixed, and the global clock advances.
func (p *Profiler) EndPhase(makespan time.Duration) {
	if p == nil || p.cur == nil {
		return
	}
	ph := p.cur
	for w := range ph.now {
		if ph.now[w] < makespan {
			p.stall(w, ph.now[w], makespan-ph.now[w], EdgeDrain, "")
			ph.now[w] = makespan
		}
	}
	p.closePhase(ph.name, PhaseParallel, makespan, ph.cp, ph.work, ph.lanes)
	p.cur = nil
}

// SerialPhase records a single-threaded phase that blocks the whole
// machine for wall (reloading and sorting a log, rebuilding a dependency
// graph): lane 0 does the work and every other lane stalls on a SERIAL
// edge attributed to the phase. (metrics.ChargeSerial books the same
// interval as W x wall of the phase's own component; the profiler's
// timeline view instead shows the W-1 idle lanes the paper's wait bars
// hide inside those components.)
func (p *Profiler) SerialPhase(name string, wall time.Duration) {
	if p == nil || wall <= 0 {
		return
	}
	if p.cur != nil {
		p.EndPhase(p.curMax())
	}
	lanes := make([]WorkerTotals, p.workers)
	p.emit(ProfSpan{Worker: 0, Kind: SpanPhaseWork, Phase: len(p.phases),
		Start: p.base, Dur: wall, Label: name})
	lanes[0].PhaseWork = wall
	for w := 1; w < p.workers; w++ {
		p.emit(ProfSpan{Worker: w, Kind: SpanStall, Phase: len(p.phases),
			Start: p.base, Dur: wall, Edge: EdgeSerial, Blocker: name,
			Label: "stall:" + EdgeSerial.String()})
		lanes[w].Stall = wall
		p.addStall(EdgeSerial, name, wall)
	}
	p.closePhase(name, PhaseSerial, wall, wall, wall, lanes)
}

// SpreadPhase records parallelizable bulk work charged as aggregate
// thread-time (decoding log segments, indexing views): the total divides
// evenly across lanes, so the phase's virtual wall length is total/W.
func (p *Profiler) SpreadPhase(name string, total time.Duration) {
	if p == nil || total <= 0 {
		return
	}
	if p.cur != nil {
		p.EndPhase(p.curMax())
	}
	per := total / time.Duration(p.workers)
	if per <= 0 {
		return
	}
	lanes := make([]WorkerTotals, p.workers)
	for w := range lanes {
		p.emit(ProfSpan{Worker: w, Kind: SpanPhaseWork, Phase: len(p.phases),
			Start: p.base, Dur: per, Label: name})
		lanes[w].PhaseWork = per
	}
	p.closePhase(name, PhaseSpread, per, per, time.Duration(p.workers)*per, lanes)
}

func (p *Profiler) closePhase(name string, kind PhaseKind, makespan, cp, work time.Duration, lanes []WorkerTotals) {
	lb := cp
	if p.workers > 0 {
		if byWork := work / time.Duration(p.workers); byWork > lb {
			lb = byWork
		}
	}
	active := 0
	for w := range lanes {
		if lanes[w].Busy()+lanes[w].Explore > 0 {
			active++
		}
		p.totals[w].add(lanes[w])
	}
	p.phases = append(p.phases, PhaseProfile{
		Name: name, Kind: kind.String(), Start: p.base,
		Makespan: makespan, CritPath: cp, Work: work, LowerBound: lb,
		ActiveLanes: active, Lanes: lanes,
	})
	p.base += makespan
}

// Spans returns the recorded timeline (ordered by emission; starts are
// globally increasing per lane) and the overflow-dropped count.
func (p *Profiler) Spans() ([]ProfSpan, uint64) {
	if p == nil {
		return nil, 0
	}
	return p.spans, p.dropped
}

// Profile closes any open phase and assembles the report.
func (p *Profiler) Profile() Profile {
	if p == nil {
		return Profile{}
	}
	if p.cur != nil {
		p.EndPhase(p.curMax())
	}
	pr := Profile{
		Workers:      p.workers,
		Timeline:     p.base,
		Phases:       p.phases,
		StallByEdge:  make(map[string]time.Duration),
		Spans:        len(p.spans),
		DroppedSpans: p.dropped,
	}
	for _, ph := range p.phases {
		pr.CritPath += ph.CritPath
		pr.LowerBound += ph.LowerBound
		pr.Work += ph.Work
	}
	if pr.LowerBound > 0 {
		pr.CPRatio = float64(pr.Timeline) / float64(pr.LowerBound)
	}
	for w, t := range p.totals {
		lane := LaneProfile{Worker: w, WorkerTotals: t}
		// Lanes created mid-profile were back-filled with stall up to
		// their creation point; the final padding to the timeline is the
		// drain the last phases applied, so every lane totals the same.
		lane.Total = t.Total()
		pr.Lanes = append(pr.Lanes, lane)
	}
	for k, agg := range p.stalls {
		pr.StallByEdge[k.edge.String()] += agg.total
		pr.TopStalls = append(pr.TopStalls, StallCause{
			Edge: k.edge.String(), Blocker: k.blocker, Total: agg.total, Count: agg.count,
		})
	}
	sort.Slice(pr.TopStalls, func(i, j int) bool {
		if pr.TopStalls[i].Total != pr.TopStalls[j].Total {
			return pr.TopStalls[i].Total > pr.TopStalls[j].Total
		}
		if pr.TopStalls[i].Edge != pr.TopStalls[j].Edge {
			return pr.TopStalls[i].Edge < pr.TopStalls[j].Edge
		}
		return pr.TopStalls[i].Blocker < pr.TopStalls[j].Blocker
	})
	const topK = 10
	if len(pr.TopStalls) > topK {
		pr.TopStalls = pr.TopStalls[:topK]
	}
	return pr
}
