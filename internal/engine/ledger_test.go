package engine

import (
	"reflect"
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
)

// TestLedgerChunksAndWriteSetOrder pins the two guarantees the shard layer
// now builds on. The ledger keeps one chunk per released epoch, and
// Delivered flattens it on demand, in release order, into a fresh slice.
// And every epoch's write set
// reaches OnWriteSet in strictly ascending key order (so sorted and
// duplicate-free), across both of Streaming Ledger's tables.
func TestLedgerChunksAndWriteSetOrder(t *testing.T) {
	gen := slGen(3)
	e := newEngine(t, ftapi.WAL, gen, storage.NewMem(), 2, 4)
	writeSets := 0
	e.cfg.OnWriteSet = func(ep uint64, keys []types.Key) {
		writeSets++
		for i := 1; i < len(keys); i++ {
			if !keys[i-1].Less(keys[i]) {
				t.Fatalf("epoch %d: write set not strictly ascending at %d: %v then %v", ep, i, keys[i-1], keys[i])
			}
		}
	}
	const epochs, size = 6, 80
	runEpochs(t, e, gen, epochs, size)
	if writeSets != epochs {
		t.Fatalf("OnWriteSet fired %d times, want %d", writeSets, epochs)
	}
	chunks := e.DeliveredChunks()
	if len(chunks) != epochs {
		t.Fatalf("ledger has %d chunks, want %d", len(chunks), epochs)
	}
	var flat []types.Output
	for i, c := range chunks {
		if len(c) != size {
			t.Fatalf("chunk %d holds %d outputs, want %d", i, len(c), size)
		}
		flat = append(flat, c...)
	}
	got := e.Delivered()
	if !reflect.DeepEqual(got, flat) {
		t.Fatal("Delivered() differs from the chunks in release order")
	}
	got[0].EventSeq = ^uint64(0)
	if chunks[0][0].EventSeq == ^uint64(0) {
		t.Fatal("Delivered() returned the ledger's own memory, want a fresh slice per call")
	}
}
