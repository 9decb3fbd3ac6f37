package ftapi

import (
	"errors"
	"testing"

	"morphstreamr/internal/metrics"
	"morphstreamr/internal/storage"
)

func TestGroupCommitterLifecycle(t *testing.T) {
	dev := storage.NewMem()
	bytes := metrics.NewBytes()
	g := NewGroupCommitter(dev, bytes, "buf", "log")

	// Nothing buffered: commit is a no-op.
	if err := g.Commit(1); err != nil {
		t.Fatal(err)
	}
	if recs, _ := dev.ReadLog(storage.LogFT); len(recs) != 0 {
		t.Fatal("empty commit wrote a record")
	}

	g.Buffer(1, []byte("one"))
	g.Buffer(2, []byte("two"))
	if g.Buffered() != 2 {
		t.Fatalf("buffered = %d", g.Buffered())
	}
	if bytes.PeakLive() == 0 {
		t.Error("buffered bytes not accounted live")
	}
	if err := g.Commit(2); err != nil {
		t.Fatal(err)
	}
	if g.Buffered() != 0 {
		t.Error("commit did not clear the buffer")
	}
	recs, _ := dev.ReadLog(storage.LogFT)
	if len(recs) != 1 || recs[0].Epoch != 2 {
		t.Fatalf("log = %+v, want one record at epoch 2", recs)
	}
	group, err := DecodeGroup(recs[0].Payload)
	if err != nil || len(group) != 2 {
		t.Fatalf("group decode: %v, %v", group, err)
	}
	if group[0].Epoch != 1 || string(group[0].Payload) != "one" ||
		group[1].Epoch != 2 || string(group[1].Payload) != "two" {
		t.Errorf("group content wrong: %+v", group)
	}
	if bytes.WrittenBy("log") == 0 {
		t.Error("durable bytes not accounted")
	}
}

// TestPrepareCommitDecouplesWrite: after PrepareCommit returns, the buffer
// is free for new epochs while the returned closure still writes the old
// group — the property asynchronous commit depends on.
func TestPrepareCommitDecouplesWrite(t *testing.T) {
	dev := storage.NewMem()
	g := NewGroupCommitter(dev, metrics.NewBytes(), "buf", "log")
	g.Buffer(1, []byte("a"))
	write, ok := g.PrepareCommit(1)
	if !ok {
		t.Fatal("prepare with a buffered epoch returned ok=false")
	}
	// New sealing happens before the write lands.
	g.Buffer(2, []byte("b"))
	if err := write(); err != nil {
		t.Fatal(err)
	}
	if err := g.Commit(2); err != nil {
		t.Fatal(err)
	}
	recs, _ := dev.ReadLog(storage.LogFT)
	if len(recs) != 2 || recs[0].Epoch != 1 || recs[1].Epoch != 2 {
		t.Fatalf("log order wrong: %+v", recs)
	}
	group1, _ := DecodeGroup(recs[0].Payload)
	group2, _ := DecodeGroup(recs[1].Payload)
	if len(group1) != 1 || len(group2) != 1 {
		t.Errorf("groups split wrong: %d, %d", len(group1), len(group2))
	}
	if _, ok := g.PrepareCommit(3); ok {
		t.Error("prepare with empty buffer returned ok=true")
	}
}

// TestPrepareCommitErrorSurfaces: a failing device error must come back
// from the closure.
func TestPrepareCommitErrorSurfaces(t *testing.T) {
	dev := storage.NewFaulty(storage.NewMem(), 0)
	g := NewGroupCommitter(dev, metrics.NewBytes(), "buf", "log")
	g.Buffer(1, []byte("x"))
	write, ok := g.PrepareCommit(1)
	if !ok {
		t.Fatal("prepare failed")
	}
	if err := write(); err == nil {
		t.Error("injected device failure not surfaced")
	}
}

// TestCommitFailurePoisons: PrepareCommit clears the buffer before the
// durable write runs, so a failed write leaves the failed group's epochs
// gone from the buffer. If later commits then succeeded, the log would
// have a silent gap recovery misreads as "those epochs never committed"
// while their successors did. A failed write must therefore poison the
// committer: later commits surface the original failure, and nothing
// further reaches the log.
func TestCommitFailurePoisons(t *testing.T) {
	inner := storage.NewMem()
	dev := storage.NewFaulty(inner, 0) // first write dies
	g := NewGroupCommitter(dev, metrics.NewBytes(), "buf", "log")

	g.Buffer(1, []byte("lost"))
	if err := g.Commit(1); err == nil {
		t.Fatal("injected failure not surfaced")
	}
	if g.Failed() == nil {
		t.Fatal("failed commit did not poison the committer")
	}

	// Point the committer at the healthy inner device: without poisoning,
	// the next commit would land and leave epoch 1 silently missing.
	g.dev = inner
	g.Buffer(2, []byte("would-gap"))
	if err := g.Commit(2); err == nil {
		t.Fatal("poisoned committer accepted a later commit")
	}
	if recs, _ := inner.ReadLog(storage.LogFT); len(recs) != 0 {
		t.Fatalf("poisoned committer wrote %d records past the gap", len(recs))
	}

	// The async split is poisoned the same way.
	write, ok := g.PrepareCommit(2)
	if !ok {
		t.Fatal("poisoned PrepareCommit returned ok=false; failure would be silent")
	}
	if err := write(); err == nil {
		t.Fatal("poisoned prepared write returned nil")
	}
}

// TestPoisonSentinelMatchable: poison errors carry the exported sentinel
// and the original device failure through the chain, so the incident
// taxonomy can classify with errors.Is instead of string matching.
func TestPoisonSentinelMatchable(t *testing.T) {
	dev := storage.NewFaulty(storage.NewMem(), 0)
	g := NewGroupCommitter(dev, metrics.NewBytes(), "buf", "log")

	g.Buffer(1, []byte("lost"))
	first := g.Commit(1)
	if first == nil {
		t.Fatal("injected failure not surfaced")
	}
	// The first failure is the device error itself, not yet a poison error.
	if errors.Is(first, ErrPoisoned) {
		t.Fatalf("first failure already marked poisoned: %v", first)
	}

	g.Buffer(2, []byte("later"))
	later := g.Commit(2)
	if !errors.Is(later, ErrPoisoned) {
		t.Fatalf("later commit not matchable as ErrPoisoned: %v", later)
	}
	if !errors.Is(later, storage.ErrInjected) {
		t.Fatalf("original write failure lost from the chain: %v", later)
	}
	if !errors.Is(g.Failed(), storage.ErrInjected) {
		t.Fatalf("Failed() = %v", g.Failed())
	}
}
