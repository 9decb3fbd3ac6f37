package workload

import (
	"math/rand"

	"morphstreamr/internal/partition"
	"morphstreamr/internal/types"
)

// Streaming Ledger (SL): depositing and transferring money and assets
// between user accounts, the running example of the paper (Figures 1, 3).
// State lives in two tables — accounts and assets — and a transfer touches
// both sides of both tables in one state transaction, guarded by the
// source account's balance. The guard makes the credit-side operations
// parametrically dependent on the source account, which is why the paper
// characterises SL as the high-dependency workload.

// Table identifiers of the SL application.
const (
	SLAccounts types.TableID = 0
	SLAssets   types.TableID = 1
)

// Event kinds of the SL application.
const (
	SLDeposit types.EventKind = iota
	SLTransfer
)

// Output kinds mirror the event kinds: a deposit produces a balance
// statement, a transfer an invoice.

// SLParams configures the Streaming Ledger generator.
type SLParams struct {
	Seed int64
	// Rows is the size of each of the two tables.
	Rows uint32
	// Partitions is the data partition count (normally the worker count).
	Partitions int
	// Theta is the Zipfian skew of source-account selection.
	Theta float64
	// TransferRatio is the fraction of events that are transfers; the rest
	// are deposits.
	TransferRatio float64
	// MultiPartitionRatio is the fraction of transfers whose destination
	// lies in a different data partition than the source.
	MultiPartitionRatio float64
	// AbortRatio is the fraction of transfers engineered to fail their
	// balance guard. Natural aborts (drained hot accounts) add to this.
	AbortRatio float64
	// InitialBalance seeds every account and asset record.
	InitialBalance int64
}

// DefaultSLParams returns the configuration used by the paper-shaped
// experiments: moderate skew, a transfer-dominated mix, and half of the
// transfers crossing partitions.
func DefaultSLParams() SLParams {
	return SLParams{
		Seed:                1,
		Rows:                1 << 12,
		Partitions:          4,
		Theta:               0.6,
		TransferRatio:       0.6,
		MultiPartitionRatio: 0.5,
		AbortRatio:          0.05,
		InitialBalance:      100_000,
	}
}

// SLApp implements types.App for Streaming Ledger.
type SLApp struct {
	rows uint32
	init int64
}

// NewSLApp creates the application for tables of the given size.
func NewSLApp(rows uint32, initialBalance int64) *SLApp {
	return &SLApp{rows: rows, init: initialBalance}
}

// Name implements types.App.
func (a *SLApp) Name() string { return "SL" }

// Tables implements types.App.
func (a *SLApp) Tables() []types.TableSpec {
	return []types.TableSpec{
		{ID: SLAccounts, Rows: a.rows, Init: a.init},
		{ID: SLAssets, Rows: a.rows, Init: a.init},
	}
}

// Preprocess implements types.App.
func (a *SLApp) Preprocess(ev types.Event) types.Txn { return types.NewTxn(ev, a.AppendOps(nil, ev)) }

// AppendOps implements types.App. A deposit tops up the account and asset
// records; a transfer debits the source and credits the destination on
// both tables, all four operations guarded by the source account balance
// (the condition operation is the source-account debit, and the guarded
// operations' one dependency aliases the event's first key).
func (a *SLApp) AppendOps(ops []types.Operation, ev types.Event) []types.Operation {
	amount := ev.Vals[0]
	switch ev.Kind {
	case SLDeposit:
		return append(ops,
			ev.Op(0, ev.Keys[0], types.FnAdd, amount),
			ev.Op(1, ev.Keys[1], types.FnAdd, amount))
	case SLTransfer:
		src := ev.Keys[:1:1]
		return append(ops,
			ev.Op(0, ev.Keys[0], types.FnGuardedSubSelf, amount),
			ev.Op(1, ev.Keys[1], types.FnGuardedAdd, amount, src...),
			ev.Op(2, ev.Keys[2], types.FnGuardedSub, amount, src...),
			ev.Op(3, ev.Keys[3], types.FnGuardedAdd, amount, src...))
	default:
		panic("workload: unknown SL event kind")
	}
}

// Postprocess implements types.App. Deposits emit a balance statement,
// transfers an invoice carrying a commit/abort status and the two
// post-transfer account balances.
func (a *SLApp) Postprocess(vals []types.Value, t *types.ExecutedTxn) (types.Output, []types.Value) {
	status := int64(0)
	if t.Aborted {
		status = 1
	}
	switch t.Txn.Event.Kind {
	case SLDeposit:
		return types.AppendOutput(vals, t.Txn.ID, SLDeposit, t.Results[0], t.Results[1])
	case SLTransfer:
		return types.AppendOutput(vals, t.Txn.ID, SLTransfer, status, t.Results[0], t.Results[1])
	default:
		panic("workload: unknown SL event kind")
	}
}

// SLGen generates the SL event stream.
type SLGen struct {
	p     SLParams
	app   *SLApp
	rng   *rand.Rand
	picks *keyPicker
	parts *partition.Ranges
	seq   uint64
}

// NewSL builds a Streaming Ledger generator.
func NewSL(p SLParams) *SLGen {
	app := NewSLApp(p.Rows, p.InitialBalance)
	return &SLGen{
		p:     p,
		app:   app,
		rng:   rand.New(rand.NewSource(p.Seed)),
		picks: newKeyPicker(p.Seed+1, p.Rows, p.Theta),
		parts: partition.NewRanges(app.Tables(), p.Partitions),
	}
}

// App implements Generator.
func (g *SLGen) App() types.App { return g.app }

// Next implements Generator.
func (g *SLGen) Next() types.Event {
	seq := g.seq
	g.seq++
	if g.rng.Float64() >= g.p.TransferRatio {
		row := g.picks.next()
		amount := 1 + g.rng.Int63n(100)
		return types.Event{
			Seq:  seq,
			Kind: SLDeposit,
			Keys: []types.Key{
				{Table: SLAccounts, Row: row},
				{Table: SLAssets, Row: row},
			},
			Vals: []types.Value{amount},
		}
	}
	srcRow := g.picks.next()
	srcPart := g.parts.Of(types.Key{Table: SLAccounts, Row: srcRow})
	var dstRow uint32
	for {
		if g.rng.Float64() < g.p.MultiPartitionRatio {
			dstRow = pickOther(g.rng, g.parts, SLAccounts, srcPart)
		} else {
			dstRow = pickIn(g.rng, g.parts, SLAccounts, srcPart)
		}
		if dstRow != srcRow {
			break
		}
	}
	amount := 1 + g.rng.Int63n(100)
	if g.rng.Float64() < g.p.AbortRatio {
		amount = doomedAmount
	}
	return types.Event{
		Seq:  seq,
		Kind: SLTransfer,
		Keys: []types.Key{
			{Table: SLAccounts, Row: srcRow},
			{Table: SLAccounts, Row: dstRow},
			{Table: SLAssets, Row: srcRow},
			{Table: SLAssets, Row: dstRow},
		},
		Vals: []types.Value{amount},
	}
}
