package shard_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/fttest"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// hashDev is an in-memory device that folds every durable write it is
// handed — operation, log or blob name, epoch, payload — into a running
// SHA-256, in device order. Records a snapshot later garbage-collects are
// therefore part of the digest too, which hashing the surviving content
// would miss.
type hashDev struct {
	*storage.Mem
	h hash.Hash
}

func newHashDev() *hashDev { return &hashDev{Mem: storage.NewMem(), h: sha256.New()} }

func (d *hashDev) fold(op byte, name string, epoch uint64, payload []byte) {
	var hdr [1 + 3*binary.MaxVarintLen64]byte
	hdr[0] = op
	n := 1 + binary.PutUvarint(hdr[1:], uint64(len(name)))
	n += binary.PutUvarint(hdr[n:], epoch)
	n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
	d.h.Write(hdr[:n])
	d.h.Write([]byte(name))
	d.h.Write(payload)
}

func (d *hashDev) Append(log string, rec storage.Record) error {
	d.fold('a', log, rec.Epoch, rec.Payload)
	return d.Mem.Append(log, rec)
}

func (d *hashDev) WriteBlob(name string, payload []byte) error {
	d.fold('b', name, 0, payload)
	return d.Mem.WriteBlob(name, payload)
}

func (d *hashDev) Truncate(log string, upTo uint64) error {
	d.fold('t', log, upTo, nil)
	return d.Mem.Truncate(log, upTo)
}

// twoTableApp is a write-local application over two tables: an event on
// row r debits {0,r} (guarded, so some transactions abort) and folds one
// read of table 0 — any row, usually another shard's — into {1,r}. Both
// written keys share the routing key's row, and the tables are the same
// size, so both live in the routing key's shard. Every barrier delta then
// holds keys of both tables, which is what makes a merge of several
// shards' deltas differ from their concatenation.
type twoTableApp struct{ rows uint32 }

func (a twoTableApp) Name() string { return "2T" }

func (a twoTableApp) Tables() []types.TableSpec {
	return []types.TableSpec{{ID: 0, Rows: a.rows, Init: 40}, {ID: 1, Rows: a.rows, Init: 0}}
}

func (a twoTableApp) Preprocess(ev types.Event) types.Txn {
	return types.NewTxn(ev, a.AppendOps(nil, ev))
}

func (a twoTableApp) AppendOps(ops []types.Operation, ev types.Event) []types.Operation {
	return append(ops,
		ev.Op(0, ev.Keys[0], types.FnGuardedSubSelf, ev.Vals[0]),
		ev.Op(1, types.Key{Table: 1, Row: ev.Keys[0].Row}, types.FnSum, 0, ev.Keys[1:]...))
}

func (a twoTableApp) Postprocess(vals []types.Value, t *types.ExecutedTxn) (types.Output, []types.Value) {
	return types.AppendOutput(vals, t.Txn.ID, t.Txn.Event.Kind, t.Results...)
}

func twoTableRun(seed int64, rows uint32, epochs, epochSize int) (types.App, [][]types.Event) {
	rng := rand.New(rand.NewSource(seed))
	seq := uint64(0)
	batches := make([][]types.Event, epochs)
	for e := range batches {
		batches[e] = make([]types.Event, epochSize)
		for i := range batches[e] {
			batches[e][i] = types.Event{
				Seq: seq,
				Keys: []types.Key{
					{Table: 0, Row: uint32(rng.Intn(int(rows)))},
					{Table: 0, Row: uint32(rng.Intn(int(rows)))},
				},
				Vals: []types.Value{int64(rng.Intn(6))},
			}
			seq++
		}
	}
	return twoTableApp{rows: rows}, batches
}

func genRun(gen workload.Generator, epochs, epochSize int) (types.App, [][]types.Event) {
	batches := make([][]types.Event, epochs)
	for i := range batches {
		batches[i] = workload.Batch(gen, epochSize)
	}
	return gen.App(), batches
}

// TestGoldenDurableTranscript pins the bytes a group writes, across
// commits: every append, blob write and truncation on the coordinator and
// on every shard device, in device order, for four applications under MSR
// and WAL. The digests were recorded at d3ce84e (before the epoch path
// lost its hash maps and sorts) and re-recorded when shard engines stopped
// writing an input log, frontier records gained the sequence floor and the
// frontier log was released (every other write byte-identical to the
// earlier run's); a data-structure change that reorders a
// frontier delta, a replication event, a log record or a view entry
// changes them. The transcript tests beside this one compare two runs of
// the same code and cannot see that.
func TestGoldenDurableTranscript(t *testing.T) {
	const epochs, epochSize = 24, 160
	gs := func() workload.Generator {
		p := workload.DefaultGSParams()
		p.Seed, p.Rows, p.Theta, p.AbortRatio = 41, 1024, 0.6, 0.05
		return workload.NewGS(p)
	}
	cases := []struct {
		name   string
		shards int
		run    func() (types.App, [][]types.Event)
		want   map[ftapi.Kind]string
	}{
		{"GS/2", 2, func() (types.App, [][]types.Event) { return genRun(gs(), epochs, epochSize) }, map[ftapi.Kind]string{
			ftapi.MSR: "968227298fe011357d86a150a486ebfad91956b74636c93abd3abb386673c47a",
			ftapi.WAL: "d5f67a9b01264d28b8e5d21ad0ab7944550c3d820d7197bda0c9430724fe1fd2",
		}},
		{"GS/4", 4, func() (types.App, [][]types.Event) { return genRun(gs(), epochs, epochSize) }, map[ftapi.Kind]string{
			ftapi.MSR: "645c73b1a23935d6a43fd04109c210252fad19e013f38b4956ec0c7c5463eaf3",
			ftapi.WAL: "aa06e1a714f7a556d7ca1109b673f915c08c1e776e9e6a907a9b624eedad3756",
		}},
		{"SL/1", 1, func() (types.App, [][]types.Event) { return genRun(fttest.SLGen(43), epochs, epochSize) }, map[ftapi.Kind]string{
			ftapi.MSR: "19ee134dde17a6200546e7ecaff14788c35b591b9f2af1c7379b5b3f75a6c2a6",
			ftapi.WAL: "0f3d8626bc5cf473b5f51d71e1569c1799b57336378cca80b6e83a8837841770",
		}},
		{"2T/3", 3, func() (types.App, [][]types.Event) { return twoTableRun(47, 600, epochs, epochSize) }, map[ftapi.Kind]string{
			ftapi.MSR: "4adbc33edceba26525b492b7afcbd459ee3a69272f8b561767a2f9e875d3d7c7",
			ftapi.WAL: "7993803d563a1f80a1c6c009140b15d4f21a4c621655a6e140baf25cf1279d0d",
		}},
	}
	for _, tc := range cases {
		for _, kind := range []ftapi.Kind{ftapi.MSR, ftapi.WAL} {
			app, batches := tc.run()
			coord := newHashDev()
			devs := make([]*hashDev, tc.shards)
			cfg := shard.Config{
				GroupShape: types.GroupShape{
					RunShape: types.RunShape{Workers: 2, CommitEvery: 2, SnapshotEvery: 8},
					Shards:   tc.shards,
				},
				App: app, Kind: kind, CoordDev: coord,
			}
			for i := range devs {
				devs[i] = newHashDev()
				cfg.Devices = append(cfg.Devices, devs[i])
			}
			g, err := shard.NewGroup(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Run(batches); err != nil {
				t.Fatalf("%s %v: %v", tc.name, kind, err)
			}
			all := sha256.New()
			all.Write(coord.h.Sum(nil))
			for _, d := range devs {
				all.Write(d.h.Sum(nil))
			}
			if got := hex.EncodeToString(all.Sum(nil)); got != tc.want[kind] {
				t.Errorf("%s %v: durable transcript digest\n got %s\nwant %s", tc.name, kind, got, tc.want[kind])
			}
		}
	}
}
