package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestBreakdownArithmetic(t *testing.T) {
	a := RecoveryBreakdown{Reload: 1, Construct: 2, Abort: 3, Explore: 4, Execute: 5, Wait: 6}
	b := a
	b.Add(a)
	if b.Total() != 2*a.Total() || a.Total() != 21 {
		t.Errorf("Add/Total wrong: %v, %v", a.Total(), b.Total())
	}
	comps := a.Components()
	if len(comps) != 6 || comps[0].Name != "reload" || comps[5].Name != "wait" {
		t.Errorf("Components() = %v", comps)
	}
	if !strings.Contains(a.String(), "construct=2ns") {
		t.Errorf("String() = %q", a.String())
	}
}

func TestRuntimeBreakdown(t *testing.T) {
	r := RuntimeBreakdown{IO: 3, Tracking: 4, Sync: 5}
	r.Add(RuntimeBreakdown{IO: 1})
	if r.Total() != 13 || r.IO != 4 {
		t.Errorf("runtime breakdown arithmetic: %+v", r)
	}
	if !strings.Contains(r.String(), "io=4ns") {
		t.Errorf("String() = %q", r.String())
	}
}

func TestPerWorker(t *testing.T) {
	a := RecoveryBreakdown{Reload: 8, Wait: 4}
	half := a.PerWorker(2)
	if half.Reload != 4 || half.Wait != 2 {
		t.Errorf("PerWorker(2) = %+v", half)
	}
	same := a.PerWorker(1)
	if same != a {
		t.Error("PerWorker(1) must be identity")
	}
}

func TestChargeSerial(t *testing.T) {
	var d time.Duration
	ChargeSerial(&d, 10, 4)
	if d != 40 {
		t.Errorf("ChargeSerial: %v, want 40ns", d)
	}
	ChargeSerial(&d, 10, 0) // clamps workers to 1
	if d != 50 {
		t.Errorf("ChargeSerial with 0 workers: %v, want 50ns", d)
	}
}

func TestBytesAccounting(t *testing.T) {
	b := NewBytes()
	b.Written("wal", 100)
	b.Written("wal", 50)
	b.Written("input", 10)
	if b.WrittenBy("wal") != 150 || b.TotalWritten() != 160 {
		t.Errorf("written accounting: wal=%d total=%d", b.WrittenBy("wal"), b.TotalWritten())
	}
	b.Alloc("views", 100)
	b.Alloc("views", 200)
	b.Free("views", 250)
	b.Alloc("views", 10)
	if got := b.PeakLive(); got != 300 {
		t.Errorf("peak = %d, want 300", got)
	}
	b.Free("views", 1000) // clamps at zero
	b.Alloc("views", 5)
	if got := b.PeakLive(); got != 300 {
		t.Errorf("peak after clamp = %d, want 300", got)
	}
	cats := b.Categories()
	if len(cats) != 3 || cats[0] != "input" {
		t.Errorf("Categories() = %v", cats)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Errorf("Throughput = %f", got)
	}
	if got := Throughput(1000, 0); got != 0 {
		t.Errorf("zero-duration throughput = %f, want 0", got)
	}
}

func TestSinceAndSerialTimer(t *testing.T) {
	var d time.Duration
	stop := Since(&d)
	time.Sleep(time.Millisecond)
	stop()
	if d < time.Millisecond {
		t.Errorf("Since measured %v", d)
	}
	var s time.Duration
	stop = SerialTimer(&s, 3)
	time.Sleep(time.Millisecond)
	stop()
	if s < 3*time.Millisecond {
		t.Errorf("SerialTimer measured %v, want >= 3ms aggregate", s)
	}
}
