package types

import "math/bits"

// Dense is an array of T indexed by Key: the per-epoch index every layer
// above the store uses where it once hashed keys into a map. A key is a
// (uint8 table, uint32 row) pair over tables whose rows are small dense
// integers, so a lookup is three bounds-checked loads and a write hashes
// nothing.
//
// It does not know the table sizes. Each table is a radix tree over the
// row — 12 bits, 12 bits, 8 bits — whose nodes are allocated when a key
// first lands in them, so memory and the cost of Each and Reset follow the
// rows actually touched, not the declared (or the largest possible) row: a
// fresh index over a 4096-row table is sixteen 2 KiB leaves, and one key at
// row 4e9 costs two directory slices and one leaf, not a 32 GiB array.
// Nodes are kept across Reset, so a recycled index allocates nothing once
// it has seen its working set.
//
// Occupancy is tracked in bitmaps beside the values (a slot is occupied
// from Slot until Reset, whatever it holds), which is what makes Each an
// ascending-key walk: an ordering by key falls out of the index and needs
// no sort. The zero Dense is empty and ready to use. It is not safe for
// concurrent mutation.
type Dense[T any] struct {
	tables []denseTable[T]
}

const (
	denseLeafBits = 8  // rows per leaf
	denseMidBits  = 12 // leaves per mid node
	denseLeafRows = 1 << denseLeafBits
	denseMidSlots = 1 << denseMidBits
)

type denseTable[T any] struct {
	mids []*denseMid[T] // by row >> (denseLeafBits + denseMidBits)
	live []uint64       // bit m: mids[m] has an occupied slot below it
}

type denseMid[T any] struct {
	leaves []*denseLeaf[T] // by (row >> denseLeafBits) % denseMidSlots
	live   [denseMidSlots / 64]uint64
}

type denseLeaf[T any] struct {
	vals [denseLeafRows]T
	used [denseLeafRows / 64]uint64
}

// Get returns the value at k, or the zero T when the slot is unoccupied.
func (d *Dense[T]) Get(k Key) (v T) {
	if int(k.Table) >= len(d.tables) {
		return v
	}
	t := &d.tables[k.Table]
	mi := int(k.Row >> (denseLeafBits + denseMidBits))
	if mi >= len(t.mids) || t.mids[mi] == nil {
		return v
	}
	m := t.mids[mi]
	li := int(k.Row>>denseLeafBits) % denseMidSlots
	if li >= len(m.leaves) || m.leaves[li] == nil {
		return v
	}
	return m.leaves[li].vals[k.Row%denseLeafRows]
}

// Slot marks k occupied and returns a pointer to its value, which holds
// the zero T when the slot was unoccupied. The pointer stays valid until
// Reset.
func (d *Dense[T]) Slot(k Key) *T {
	if int(k.Table) >= len(d.tables) {
		d.tables = append(d.tables, make([]denseTable[T], int(k.Table)+1-len(d.tables))...)
	}
	t := &d.tables[k.Table]
	mi := int(k.Row >> (denseLeafBits + denseMidBits))
	if mi >= len(t.mids) {
		t.mids = append(t.mids, make([]*denseMid[T], mi+1-len(t.mids))...)
		t.live = append(t.live, make([]uint64, mi/64+1-len(t.live))...)
	}
	m := t.mids[mi]
	if m == nil {
		m = &denseMid[T]{}
		t.mids[mi] = m
	}
	li := int(k.Row>>denseLeafBits) % denseMidSlots
	if li >= len(m.leaves) {
		m.leaves = append(m.leaves, make([]*denseLeaf[T], li+1-len(m.leaves))...)
	}
	l := m.leaves[li]
	if l == nil {
		l = &denseLeaf[T]{}
		m.leaves[li] = l
	}
	i := k.Row % denseLeafRows
	l.used[i/64] |= 1 << (i % 64)
	m.live[li/64] |= 1 << (li % 64)
	t.live[mi/64] |= 1 << (mi % 64)
	return &l.vals[i]
}

// Each calls fn for every occupied slot in ascending key order.
func (d *Dense[T]) Each(fn func(Key, T)) {
	d.walk(func(table TableID, base uint32, l *denseLeaf[T]) {
		for w, word := range l.used {
			for ; word != 0; word &= word - 1 {
				i := uint32(w*64 + bits.TrailingZeros64(word))
				fn(Key{Table: table, Row: base + i}, l.vals[i])
			}
		}
	})
}

// Reset empties the index, keeping its nodes. Its cost follows the leaves
// occupied since the last Reset, not the nodes ever allocated.
func (d *Dense[T]) Reset() {
	d.walk(func(_ TableID, _ uint32, l *denseLeaf[T]) { *l = denseLeaf[T]{} })
	for ti := range d.tables {
		t := &d.tables[ti]
		for w, word := range t.live {
			for ; word != 0; word &= word - 1 {
				t.mids[w*64+bits.TrailingZeros64(word)].live = [denseMidSlots / 64]uint64{}
			}
			t.live[w] = 0
		}
	}
}

// walk visits every leaf with an occupied slot, ascending by table then
// row; base is the leaf's first row.
func (d *Dense[T]) walk(visit func(table TableID, base uint32, l *denseLeaf[T])) {
	for ti := range d.tables {
		t := &d.tables[ti]
		for tw, tword := range t.live {
			for ; tword != 0; tword &= tword - 1 {
				mi := tw*64 + bits.TrailingZeros64(tword)
				m := t.mids[mi]
				for mw, mword := range m.live {
					for ; mword != 0; mword &= mword - 1 {
						li := mw*64 + bits.TrailingZeros64(mword)
						base := uint32(mi)<<(denseLeafBits+denseMidBits) | uint32(li)<<denseLeafBits
						visit(TableID(ti), base, m.leaves[li])
					}
				}
			}
		}
	}
}
