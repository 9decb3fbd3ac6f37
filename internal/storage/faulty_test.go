package storage

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func TestFaultyFailStop(t *testing.T) {
	inner := NewMem()
	f := NewFaulty(inner, 2)
	if err := f.Append("log", Record{Epoch: 1, Payload: []byte("aa")}); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteBlob("snap", []byte("bb")); err != nil {
		t.Fatal(err)
	}
	if f.Remaining() != 0 {
		t.Fatalf("remaining = %d, want 0", f.Remaining())
	}
	if err := f.Append("log", Record{Epoch: 2, Payload: []byte("cc")}); !errors.Is(err, ErrInjected) {
		t.Fatalf("past-budget append: %v", err)
	}
	// Nothing of the failed write reaches the medium.
	recs, _ := inner.ReadLog("log")
	if len(recs) != 1 {
		t.Fatalf("fail-stop persisted %d records, want 1", len(recs))
	}
	site, ok := f.Injected()
	if !ok || site.Op != "append" || site.Name != "log" || site.Epoch != 2 || site.Seq != 2 {
		t.Fatalf("injected site = %+v ok=%v", site, ok)
	}
	// Reads keep working after death.
	if _, err := f.ReadLog("log"); err != nil {
		t.Fatal(err)
	}
}

func TestFaultyTornWrite(t *testing.T) {
	inner := NewMem()
	f := NewFaultyMode(inner, 1, TornWrite, "")
	if err := f.Append("log", Record{Epoch: 1, Payload: []byte("full")}); err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789")
	if err := f.Append("log", Record{Epoch: 2, Payload: payload}); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn append: %v", err)
	}
	recs, _ := inner.ReadLog("log")
	if len(recs) != 2 {
		t.Fatalf("torn write persisted %d records, want 2 (intact + torn)", len(recs))
	}
	torn := recs[1]
	if torn.Epoch != 2 || len(torn.Payload) >= len(payload) || !bytes.HasPrefix(payload, torn.Payload) {
		t.Fatalf("torn record = epoch %d payload %q; want strict prefix of %q", torn.Epoch, torn.Payload, payload)
	}
	// Only the first failing write tears; later writes fail-stop.
	if err := f.Append("log", Record{Epoch: 3, Payload: []byte("late")}); !errors.Is(err, ErrInjected) {
		t.Fatal("dead device accepted a write")
	}
	recs, _ = inner.ReadLog("log")
	if len(recs) != 2 {
		t.Fatalf("post-death write persisted: %d records", len(recs))
	}
}

func TestFaultyTornBlobStaysAtomic(t *testing.T) {
	inner := NewMem()
	f := NewFaultyMode(inner, 1, TornWrite, "")
	if err := f.WriteBlob("snap", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteBlob("snap", []byte("newer-and-longer")); !errors.Is(err, ErrInjected) {
		t.Fatal("past-budget blob write succeeded")
	}
	b, ok, _ := inner.ReadBlob("snap")
	if !ok || string(b) != "old" {
		t.Fatalf("blob after torn write = %q ok=%v; atomic replace must keep the old blob", b, ok)
	}
}

func TestFaultyDroppedTail(t *testing.T) {
	inner := NewMem()
	f := NewFaultyMode(inner, 0, DroppedTail, "")
	if err := f.Append("log", Record{Epoch: 7, Payload: []byte("payload")}); !errors.Is(err, ErrInjected) {
		t.Fatal("injection missing")
	}
	recs, _ := inner.ReadLog("log")
	if len(recs) != 1 || recs[0].Epoch != 7 || len(recs[0].Payload) != 0 {
		t.Fatalf("dropped-tail record = %+v; want epoch 7 with empty payload", recs)
	}
}

func TestFaultyPerLogTargeting(t *testing.T) {
	inner := NewMem()
	f := NewFaultyMode(inner, 1, FailStop, "ft")
	// Non-target writes never count and never fail.
	for i := 0; i < 5; i++ {
		if err := f.Append("input", Record{Epoch: uint64(i), Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Append("ft", Record{Epoch: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := f.Append("ft", Record{Epoch: 2, Payload: []byte("x")}); !errors.Is(err, ErrInjected) {
		t.Fatalf("second ft write: %v", err)
	}
	// The target died, the rest of the device keeps working.
	if err := f.Append("input", Record{Epoch: 9, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteBlob("snapshot", nil); err != nil {
		t.Fatal(err)
	}
	site, ok := f.Injected()
	if !ok || site.Name != "ft" || site.Seq != 1 {
		t.Fatalf("site = %+v ok=%v; Seq must count target writes only", site, ok)
	}
}

func TestTraceEnumeratesWrites(t *testing.T) {
	inner := NewMem()
	tr := NewTrace(inner)
	if err := tr.Append("input", Record{Epoch: 1, Payload: []byte("ev")}); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteBlob("snapshot", []byte("snap")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Truncate("input", 1); err != nil {
		t.Fatal(err)
	}
	sites := tr.Sites()
	if len(sites) != 3 {
		t.Fatalf("sites = %d, want 3", len(sites))
	}
	want := []WriteSite{
		{Seq: 0, Op: "append", Name: "input", Epoch: 1, Bytes: 2},
		{Seq: 1, Op: "blob", Name: "snapshot", Bytes: 4},
		{Seq: 2, Op: "truncate", Name: "input", Epoch: 1},
	}
	for i, s := range sites {
		if s != want[i] {
			t.Errorf("site %d = %+v, want %+v", i, s, want[i])
		}
		if s.String() == "" {
			t.Errorf("site %d has empty String()", i)
		}
	}
	// The trace forwards: the medium has the writes.
	recs, _ := inner.ReadLog("input")
	if len(recs) != 0 { // truncated
		t.Fatalf("trace did not forward truncate: %d records", len(recs))
	}
}

// TestFaultyTraceAgreement: a Faulty with target "" counts writes exactly
// the way a Trace enumerates them, so budget k dies at Sites()[k].
func TestFaultyTraceAgreement(t *testing.T) {
	run := func(dev Device) {
		dev.Append("a", Record{Epoch: 1, Payload: []byte("x")})
		dev.WriteBlob("b", []byte("y"))
		dev.Append("a", Record{Epoch: 2, Payload: []byte("z")})
		dev.Truncate("a", 1)
	}
	tr := NewTrace(NewMem())
	run(tr)
	sites := tr.Sites()
	for k := range sites {
		f := NewFaulty(NewMem(), k)
		run(f)
		got, ok := f.Injected()
		if !ok || got != sites[k] {
			t.Fatalf("budget %d died at %+v, trace says %+v", k, got, sites[k])
		}
	}
}

// TestOutage: an outage fails writes [k, k+n) with ErrInjected, persisting
// nothing of them, and passes every later write; reads work throughout, and
// a Trace below sees the same write sequence minus the failed writes.
func TestOutage(t *testing.T) {
	const k, n = 2, 3
	inner := NewMem()
	trace := NewTrace(inner)
	f := NewOutage(trace, k, n)
	var want []WriteSite
	for i := 0; i < k+n+2; i++ {
		err := f.Append("log", Record{Epoch: uint64(i), Payload: []byte("x")})
		if failed := i >= k && i < k+n; failed != errors.Is(err, ErrInjected) || !failed && err != nil {
			t.Fatalf("write %d: %v", i, err)
		} else if !failed {
			want = append(want, WriteSite{Seq: len(want), Op: "append", Name: "log", Epoch: uint64(i), Bytes: 1})
		}
		if _, err := f.ReadLog("log"); err != nil {
			t.Fatalf("read after write %d: %v", i, err)
		}
	}
	if err := f.WriteBlob("snap", []byte("y")); err != nil {
		t.Fatal(err)
	}
	want = append(want, WriteSite{Seq: len(want), Op: "blob", Name: "snap", Bytes: 1})
	if got := trace.Sites(); !reflect.DeepEqual(got, want) {
		t.Fatalf("trace below the outage saw %+v, want %+v", got, want)
	}
	recs, _ := inner.ReadLog("log")
	if len(recs) != k+2 || recs[k].Epoch != k+n {
		t.Fatalf("medium holds %+v, want the writes outside the outage", recs)
	}
	if site, ok := f.Injected(); !ok || site.Seq != k || f.InjectedAt().IsZero() {
		t.Fatalf("first injection %+v (ok=%v) at %v, want write %d", site, ok, f.InjectedAt(), k)
	}
}
