package shard

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/fttest"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// refMergeForeign is how buildReplication merged the other shards' deltas
// before it k-way merged them: pour every foreign delta into one map, pull
// the keys back out, comparison-sort them.
func refMergeForeign(dst int, deltas []codec.ShardDelta) codec.ShardDelta {
	merged := map[types.Key]types.Value{}
	for src, d := range deltas {
		if src == dst {
			continue
		}
		for i, k := range d.Keys {
			merged[k] = d.Vals[i]
		}
	}
	var out codec.ShardDelta
	for k := range merged {
		out.Keys = append(out.Keys, k)
	}
	sort.Slice(out.Keys, func(i, j int) bool { return out.Keys[i].Less(out.Keys[j]) })
	for _, k := range out.Keys {
		out.Vals = append(out.Vals, merged[k])
	}
	return out
}

// TestMergeForeignMatchesMapAndSort: for 3 shards over 2 tables — where
// concatenating the sorted, disjoint deltas is not sorted — the k-way
// merge equals the map-and-sort form key for key and value for value,
// empty deltas included, and the events chunked from it carry the same
// keys in the same order.
func TestMergeForeignMatchesMapAndSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const shards, rows = 3, 900
	for round := 0; round < 40; round++ {
		// Shard s owns rows [s*300, (s+1)*300) of both tables.
		deltas := make([]codec.ShardDelta, shards)
		for s := range deltas {
			if rng.Intn(6) == 0 {
				continue // a shard that wrote nothing this epoch
			}
			for table := types.TableID(0); table < 2; table++ {
				for row := uint32(s * rows / shards); row < uint32((s+1)*rows/shards); row++ {
					if rng.Intn(3) == 0 {
						deltas[s].Keys = append(deltas[s].Keys, types.Key{Table: table, Row: row})
						deltas[s].Vals = append(deltas[s].Vals, rng.Int63n(1000))
					}
				}
			}
		}
		for dst := 0; dst < shards; dst++ {
			got, want := mergeForeign(codec.ShardDelta{}, dst, deltas), refMergeForeign(dst, deltas)
			if len(got.Keys) != len(want.Keys) || (len(want.Keys) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("round %d dst %d: merge diverges from the map-and-sort form (%d vs %d keys)", round, dst, len(got.Keys), len(want.Keys))
			}
			events, err := buildReplication(dst, deltas, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			var keys []types.Key
			for i, ev := range events {
				if ev.Kind != KindReplicate || ev.Seq != 1<<20-uint64(len(events))+uint64(i) || len(ev.Keys) > maxReplicateKeys {
					t.Fatalf("round %d dst %d: event %d malformed: %+v", round, dst, i, ev)
				}
				keys = append(keys, ev.Keys...)
			}
			if len(keys) != len(want.Keys) || (len(keys) > 0 && !reflect.DeepEqual(keys, want.Keys)) {
				t.Fatalf("round %d dst %d: replication events carry different keys than the reference", round, dst)
			}
		}
	}
}

// TestMergeForeignDuplicateKeyLaterShardWins: deltas are ownership-disjoint
// by construction, but a frontier record read back from a device is input;
// should two shards' deltas carry one key, the merge keeps it once with
// the later shard's value, as the map form did.
func TestMergeForeignDuplicateKeyLaterShardWins(t *testing.T) {
	k := func(row uint32) types.Key { return types.Key{Table: 0, Row: row} }
	deltas := []codec.ShardDelta{
		{Keys: []types.Key{k(1), k(5)}, Vals: []types.Value{10, 50}},
		{},
		{Keys: []types.Key{k(5), k(7)}, Vals: []types.Value{51, 70}},
	}
	got, want := mergeForeign(codec.ShardDelta{}, 1, deltas), refMergeForeign(1, deltas)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge = %+v, map-and-sort form = %+v", got, want)
	}
}

// gsGroup builds a 2-shard Grep&Sum group of kind over coord (nil: a fresh
// device) and n batches of size events for it.
func gsGroup(t *testing.T, seed int64, kind ftapi.Kind, coord storage.Device, n, size int) (*Group, [][]types.Event) {
	gen := fttest.GSGen(seed)
	g, err := NewGroup(Config{GroupShape: types.GroupShape{
		RunShape: types.RunShape{Workers: 2, CommitEvery: 2, SnapshotEvery: 4}, Shards: 2,
	}, App: gen.App(), Kind: kind, CoordDev: coord})
	if err != nil {
		t.Fatal(err)
	}
	batches := make([][]types.Event, n)
	for i := range batches {
		batches[i] = workload.Batch(gen, size)
	}
	return g, batches
}

// TestRecycledBuffersKeepLiveData: the group recycles its per-epoch
// buffers, but never through memory something still reads: the barrier
// deltas epoch N+1 replicates from stay intact through that epoch, including
// a heal of it on the shard rung (a delta set is rebuilt two barriers
// later).
func TestRecycledBuffersKeepLiveData(t *testing.T) {
	g, batches := gsGroup(t, 23, ftapi.MSR, nil, 5, 64)
	if err := g.Run(batches[:4]); err != nil {
		t.Fatal(err)
	}
	deltas := g.lastDeltas
	wantDeltas := slices.Clone(deltas)
	for i, d := range deltas {
		wantDeltas[i] = codec.ShardDelta{Keys: slices.Clone(d.Keys), Vals: slices.Clone(d.Vals)}
	}
	if len(deltas[0].Keys)+len(deltas[1].Keys) == 0 {
		t.Fatal("no barrier deltas to watch")
	}

	g.Engine(1).Crash() // epoch 5 dies on shard 1 and heals in place
	rep, err := g.Heal(g.ProcessEpoch(batches[4]), types.BatchSource(batches))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reports[0] != nil {
		t.Fatal("a one-shard death took the group rung")
	}
	if !reflect.DeepEqual(deltas, wantDeltas) {
		t.Fatal("the barrier deltas epoch 5 replicated from changed under its heal")
	}
}

// countingDev counts the records its log cursors hand out.
type countingDev struct {
	storage.Device
	read int
}

func (d *countingDev) ReadFrom(log string, from uint64) (storage.Cursor, error) {
	cur, err := storage.ReadFrom(d.Device, log, from)
	if err != nil {
		return nil, err
	}
	recs, err := storage.ReadAll(cur)
	d.read += len(recs)
	return storage.NewSliceCursor(recs, 0), err
}

// TestFrontierDeltasSeek: a recovery reads the frontier log once, from the
// record before the replay horizon on — only those, however long the run —
// and holds each epoch's latest record, as a whole-log read does. The log is a
// 2-shard run of 43 epochs healed on the group rung at epoch 41, released
// below its horizon as it ran. A torn record closing the log reads as
// absent, and once more is appended it is an error.
func TestFrontierDeltasSeek(t *testing.T) {
	coord := &countingDev{Device: storage.NewSegStore(storage.SegConfig{SegmentBytes: 1 << 10})}
	g, batches := gsGroup(t, 71, ftapi.WAL, coord, 43, 24)
	if err := g.Run(batches[:40]); err != nil {
		t.Fatal(err)
	}
	g.Crash()
	if _, err := g.Heal(g.ProcessEpoch(batches[40]), types.BatchSource(batches)); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(batches[40:]); err != nil {
		t.Fatal(err)
	}

	check := func(last uint64) {
		t.Helper()
		recs, err := coord.Device.ReadLog(LogFrontier)
		if err != nil {
			t.Fatal(err)
		}
		if recs[0].Epoch == 1 {
			t.Fatal("the frontier log was never released")
		}
		h, read, latest := g.Horizon(), 0, map[uint64][]byte{}
		for _, r := range recs {
			if r.Epoch+1 >= h {
				read, latest[r.Epoch] = read+1, r.Payload
			}
		}
		coord.read = 0
		rp, err := g.newReplay(types.BatchSource(batches))
		if err != nil {
			t.Fatal(err)
		}
		if coord.read != read || rp.last != last {
			t.Fatalf("read %d records up to epoch %d, want the %d from the one before horizon %d, up to %d", coord.read, rp.last, read, h, last)
		}
		for ep, p := range latest {
			deltas, floor, _ := codec.DecodeFrontier(p)
			if f := rp.frontier[ep]; ep <= last && (f.floor != floor || !reflect.DeepEqual(f.deltas, deltas)) {
				t.Fatalf("epoch %d: holds %+v, the log's latest record is %x", ep, f, p)
			}
		}
	}
	check(43)
	if err := coord.Append(LogFrontier, storage.Record{Epoch: 44, Payload: []byte{0xff}}); err != nil {
		t.Fatal(err)
	}
	check(43) // a torn tail record reads as absent
	if err := g.appendFrontier(45, g.lastDeltas); err != nil {
		t.Fatal(err)
	}
	if _, err := g.newReplay(types.BatchSource(batches)); err == nil {
		t.Fatal("a corrupt record inside the log read without error")
	}
}
