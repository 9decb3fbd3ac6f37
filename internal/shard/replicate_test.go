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
// a heal that re-stages its replication from them (a delta set is rebuilt
// two barriers later).
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

// countingDev counts the records its log cursors hand out; whole makes
// every cursor read its log from the start, as frontierDeltas did before it
// sought.
type countingDev struct {
	storage.Device
	read  int
	whole bool
}

func (d *countingDev) ReadFrom(log string, from uint64) (storage.Cursor, error) {
	if d.whole {
		from = 0
	}
	cur, err := storage.ReadFrom(d.Device, log, from)
	if err != nil {
		return nil, err
	}
	recs, err := storage.ReadAll(cur)
	d.read += len(recs)
	return storage.NewSliceCursor(recs, 0), err
}

// TestFrontierDeltasSeek: a re-alignment's frontier read seeks to the epoch
// it needs, reading only the records from that epoch on however long the
// run, and returns what a read of the whole log returned. The log is a
// 2-shard run of 40 epochs healed on the group rung, so epoch 40 carries a
// barrier record and the re-appended full sync after it, plus a torn record
// closing the log (absent) and, once more is appended, a corrupt one inside
// it (an error).
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

	// Every epoch reads what a whole-log read returned, from the records
	// at and after it alone.
	check := func(last uint64) {
		t.Helper()
		recs, err := coord.Device.ReadLog(LogFrontier)
		if err != nil {
			t.Fatal(err)
		}
		for ep := uint64(1); ep <= last; ep++ {
			coord.whole = true
			want, wantOK, wantErr := g.frontierDeltas(ep)
			coord.whole, coord.read = false, 0
			got, ok, err := g.frontierDeltas(ep)
			if ok != wantOK || (err != nil) != (wantErr != nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("epoch %d read (ok %v, err %v), a whole-log read (ok %v, err %v)", ep, ok, err, wantOK, wantErr)
			}
			from := slices.IndexFunc(recs, func(r storage.Record) bool { return r.Epoch >= ep })
			if coord.read != len(recs)-from {
				t.Fatalf("epoch %d read %d records, want the %d from it on", ep, coord.read, len(recs)-from)
			}
		}
	}
	if recs, _ := coord.Device.ReadLog(LogFrontier); len(recs) != 44 || recs[40].Epoch != 40 {
		t.Fatalf("frontier log holds %d records, want 43 barriers and epoch 40's full sync after its barrier", len(recs))
	}
	check(43)

	if err := coord.Append(LogFrontier, storage.Record{Epoch: 44, Payload: []byte{0xff}}); err != nil {
		t.Fatal(err)
	}
	check(44)
	if _, ok, err := g.frontierDeltas(44); ok || err != nil {
		t.Fatalf("torn tail record read ok=%v err=%v, want absent", ok, err)
	}
	if err := g.appendFrontier(45, g.lastDeltas); err != nil {
		t.Fatal(err)
	}
	check(45)
	if _, _, err := g.frontierDeltas(44); err == nil {
		t.Fatal("a corrupt record inside the log read without error")
	}
}
