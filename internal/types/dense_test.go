package types

import (
	"math/rand"
	"sort"
	"testing"
)

// denseKey draws keys that cover every level of the radix tree: a small
// hot table, a sparse one, and rows up to the top of the uint32 range.
func denseKey(rng *rand.Rand) Key {
	switch rng.Intn(4) {
	case 0:
		return Key{Table: 0, Row: uint32(rng.Intn(600))}
	case 1:
		return Key{Table: TableID(rng.Intn(3)), Row: uint32(rng.Intn(1 << 22))}
	case 2:
		return Key{Table: 200, Row: ^uint32(0) - uint32(rng.Intn(70_000))}
	default:
		return Key{Table: TableID(rng.Intn(256)), Row: rng.Uint32()}
	}
}

// TestDenseMatchesMap drives a Dense and a map with the same writes over
// several Reset generations and requires the same content, and Each in
// ascending key order — the two properties the epoch path relies on.
func TestDenseMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var d Dense[int]
	for gen := 0; gen < 6; gen++ {
		ref := map[Key]int{}
		var absent []Key
		for i := 0; i < 3000; i++ {
			k := denseKey(rng)
			if rng.Intn(5) == 0 {
				absent = append(absent, k)
				continue
			}
			v := rng.Intn(1000) + 1
			slot := d.Slot(k)
			if _, seen := ref[k]; !seen && *slot != 0 {
				t.Fatalf("gen %d: fresh slot %v holds %d", gen, k, *slot)
			}
			*slot = v
			ref[k] = v
		}
		for k, want := range ref {
			if got := d.Get(k); got != want {
				t.Fatalf("gen %d: Get(%v) = %d, want %d", gen, k, got, want)
			}
		}
		for _, k := range absent {
			if got := d.Get(k); got != ref[k] {
				t.Fatalf("gen %d: Get(%v) = %d on a key never written, want %d", gen, k, got, ref[k])
			}
		}
		want := make([]Key, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
		var got []Key
		d.Each(func(k Key, v int) {
			if v != ref[k] {
				t.Fatalf("gen %d: Each(%v) = %d, want %d", gen, k, v, ref[k])
			}
			got = append(got, k)
		})
		if len(got) != len(want) {
			t.Fatalf("gen %d: Each visited %d keys, want %d", gen, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("gen %d: Each order diverges at %d: got %v want %v", gen, i, got[i], want[i])
			}
		}
		d.Reset()
		d.Each(func(k Key, _ int) { t.Fatalf("gen %d: %v survived Reset", gen, k) })
		for k := range ref {
			if got := d.Get(k); got != 0 {
				t.Fatalf("gen %d: Get(%v) = %d after Reset", gen, k, got)
			}
		}
	}
}

// TestDenseSteadyStateAllocatesNothing: once an index has seen its working
// set, filling and resetting it again allocates nothing.
func TestDenseSteadyStateAllocatesNothing(t *testing.T) {
	var d Dense[*int]
	x := 7
	fill := func() {
		for row := uint32(0); row < 4096; row += 3 {
			*d.Slot(Key{Table: 1, Row: row}) = &x
		}
		n := 0
		d.Each(func(Key, *int) { n++ })
		if n != 1366 {
			t.Fatalf("Each visited %d slots, want 1366", n)
		}
		d.Reset()
	}
	fill()
	if got := testing.AllocsPerRun(20, fill); got != 0 {
		t.Fatalf("steady-state fill+reset: %.1f allocs, want 0", got)
	}
}
