package serve

import (
	"testing"
	"time"

	"morphstreamr/internal/types"
)

// queueTenant admits batches of the given sizes, in order, into a fresh
// tenant.
func queueTenant(t *testing.T, sizes ...int) *tenant {
	t.Helper()
	tn := newTenant(TenantConfig{Name: "a", QueueCap: 1024}, 0, time.Now())
	for i, n := range sizes {
		if v := tn.admit(uint64(i+1), &batch{ev: make([]types.Event, n)}, false, 0, time.Now(), nil, false); v != vAccept {
			t.Fatalf("batch %d: verdict %d, want accept", i+1, v)
		}
	}
	return tn
}

// TestTakeFittingDrainsWholeBatchesInOrder pins the gather step's contract
// now that it drains a tenant under one lock: whole batches, queue order,
// as many as fit the epoch's room; a batch that does not fit stays queued
// and closes the epoch (room 0); an oversized batch is taken only as the
// epoch's very first; everything taken is pending, nothing else is.
func TestTakeFittingDrainsWholeBatchesInOrder(t *testing.T) {
	seqs := func(bs []*batch) []uint64 {
		out := make([]uint64, len(bs))
		for i, b := range bs {
			out[i] = b.seq
		}
		return out
	}
	cases := []struct {
		name     string
		sizes    []int
		room     int
		first    bool
		want     []uint64
		wantRoom int
		wantLeft int
	}{
		{"all fit", []int{8, 8, 8}, 100, true, []uint64{1, 2, 3}, 76, 0},
		{"exact fit ends the epoch", []int{8, 8, 8}, 16, true, []uint64{1, 2}, 0, 1},
		{"next does not fit: put off, epoch closed", []int{8, 8, 8}, 20, true, []uint64{1, 2}, 0, 1},
		{"oversized first batch of the epoch is taken alone", []int{50, 8}, 16, true, []uint64{1}, -34, 1},
		{"oversized batch behind another tenant's waits", []int{50, 8}, 16, false, nil, 0, 2},
		{"oversized second batch waits", []int{8, 50}, 16, true, []uint64{1}, 0, 1},
		{"empty queue leaves the room alone", nil, 16, true, nil, 16, 0},
	}
	for _, tc := range cases {
		tn := queueTenant(t, tc.sizes...)
		got, room := tn.takeFitting(tc.room, tc.first)
		if g, w := seqs(got), tc.want; len(g) != len(w) {
			t.Fatalf("%s: took batches %v, want %v", tc.name, g, w)
		} else {
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("%s: took batches %v, want %v", tc.name, g, w)
				}
			}
		}
		if room != tc.wantRoom {
			t.Errorf("%s: room %d, want %d", tc.name, room, tc.wantRoom)
		}
		st := tn.stats()
		if st.Queue != tc.wantLeft || st.Pending != len(tc.want) {
			t.Errorf("%s: %d queued and %d pending, want %d and %d", tc.name, st.Queue, st.Pending, tc.wantLeft, len(tc.want))
		}
		// What was put off is still at the queue front, in order.
		rest, _ := tn.takeFitting(1<<30, true)
		for i, b := range rest {
			if want := uint64(len(tc.want) + i + 1); b.seq != want {
				t.Fatalf("%s: queue front after the take is batch %d, want %d", tc.name, b.seq, want)
			}
		}
	}
}
