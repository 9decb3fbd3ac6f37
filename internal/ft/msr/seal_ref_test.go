package msr

import (
	"bytes"
	"testing"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/partition"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// refSealer is SealEpoch as it was while every per-epoch index was a hash
// map: the cached partitioning is a map[Key]int, chain positions come from
// a map[*Chain]int32, and co-location needs collect in a map[Key]struct{}.
// It is the reference the dense SealEpoch's bytes are held against.
type refSealer struct {
	groupCache    map[types.Key]int
	groupCooldown int
}

func (r *refSealer) partition(g *tpg.Graph, k int) map[types.Key]int {
	n := len(g.ChainList)
	idx := make(map[*tpg.Chain]int32, n)
	weights := make([]int, n)
	for i, ch := range g.ChainList {
		idx[ch] = int32(i)
		weights[i] = len(ch.Ops)
	}
	adj := make([][]int32, n)
	addEdge := func(a, b int32) {
		if a != b {
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
	}
	for _, tn := range g.Txns {
		for _, opn := range tn.Ops {
			if opn.CondSrc != nil {
				addEdge(idx[opn.CondSrc.Chain], idx[opn.Chain])
			}
			for _, src := range opn.PDSrc {
				if src != nil {
					addEdge(idx[src.Chain], idx[opn.Chain])
				}
			}
		}
	}
	assign := partition.GreedyAdj(weights, adj, k)
	out := make(map[types.Key]int, n)
	for i, ch := range g.ChainList {
		out[ch.Key] = assign[i]
	}
	return out
}

func (r *refSealer) seal(ep *ftapi.EpochResult) []byte {
	if r.groupCache == nil || r.groupCooldown <= 0 {
		r.groupCache = r.partition(ep.Graph, ep.Workers)
		r.groupCooldown = repartitionEvery
	}
	r.groupCooldown--
	groups := r.groupCache
	sameGroup := func(a, b types.Key) bool {
		ga, ok := groups[a]
		if !ok {
			return false
		}
		gb, ok := groups[b]
		return ok && ga == gb
	}
	var views codec.MSRViews
	needGroup := map[types.Key]struct{}{}
	for _, tn := range ep.Graph.Txns {
		if tn.Aborted() {
			views.Aborted = append(views.Aborted, tn.Txn.ID)
		}
		for _, opn := range tn.Ops {
			for i, src := range opn.PDSrc {
				if src == nil {
					continue
				}
				if sameGroup(src.Op.Key, opn.Op.Key) {
					needGroup[src.Op.Key] = struct{}{}
					needGroup[opn.Op.Key] = struct{}{}
					continue
				}
				views.Parametric = append(views.Parametric, codec.ViewEntry{
					From: opn.Op.Deps[i], To: opn.Op.Key, TS: opn.Op.TS, Value: opn.DepVals[i],
				})
			}
		}
	}
	for _, ch := range ep.Graph.ChainList {
		if _, need := needGroup[ch.Key]; need {
			views.Groups = append(views.Groups, codec.GroupEntry{Key: ch.Key, Group: uint8(groups[ch.Key])})
		}
	}
	return codec.EncodeMSR(views)
}

// TestSealEpochBytesMatchMapForm seals a run that crosses two
// repartitionings with both forms and requires byte-identical views for
// every epoch. The generator's key space is far larger than an epoch, so
// every epoch between repartitionings holds keys the cached partitioning
// never saw (which must classify as inter-group and be logged) beside keys
// it did see.
func TestSealEpochBytesMatchMapForm(t *testing.T) {
	p := workload.DefaultSLParams()
	p.Seed, p.Rows, p.Theta, p.AbortRatio, p.MultiPartitionRatio = 21, 4096, 0.9, 0.2, 0.7
	gen := workload.NewSL(p)
	st := store.New(gen.App().Tables())
	dev := storage.NewMem()
	m := New(dev, metrics.NewBytes(), Default())
	ref := &refSealer{}

	const epochs = 2*repartitionEvery + 3
	want := map[uint64][]byte{}
	unseen, sameGroup := 0, 0
	for e := uint64(1); e <= epochs; e++ {
		ep := runEpoch(t, gen, st, e, 300, 4)
		want[e] = ref.seal(ep)
		for _, ch := range ep.Graph.ChainList {
			if _, ok := ref.groupCache[ch.Key]; !ok {
				unseen++
			}
		}
		m.SealEpoch(ep)
	}
	if unseen == 0 {
		t.Fatal("no epoch held a key the cached partitioning never saw; the test needs a larger key space")
	}
	if err := m.Commit(epochs); err != nil {
		t.Fatal(err)
	}
	recs, err := dev.ReadLog(storage.LogFT)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, rec := range recs {
		eps, err := ftapi.DecodeGroup(rec.Payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, ep := range eps {
			seen++
			if !bytes.Equal(ep.Payload, want[ep.Epoch]) {
				t.Fatalf("epoch %d: sealed views differ from the map form (%d vs %d bytes)", ep.Epoch, len(ep.Payload), len(want[ep.Epoch]))
			}
			views, err := codec.DecodeMSR(ep.Payload)
			if err != nil {
				t.Fatal(err)
			}
			sameGroup += len(views.Groups)
		}
	}
	if seen != epochs {
		t.Fatalf("compared %d epochs, want %d", seen, epochs)
	}
	if sameGroup == 0 {
		t.Fatal("no epoch persisted a group entry; the test needs intra-group dependencies")
	}
}
