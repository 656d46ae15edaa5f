package storage

import "testing"

func TestClosedSourceThinkTime(t *testing.T) {
	e := NewEngine()
	d := NewSSD(e, "s", SSD32Config())
	var doneAt float64
	src := &ClosedSource{
		Engine:  e,
		Device:  d,
		Stream:  1,
		Pattern: ScanPattern(0, 10*8192, 8192, false),
		Think:   0.1,
		OnDone:  func(at float64) { doneAt = at },
	}
	src.Start()
	e.Run(0)
	// 10 requests with 0.1 s think after each completion: at least 0.9 s
	// of think time in the span.
	if doneAt < 0.9 {
		t.Fatalf("finished at %.3f s, think time not applied", doneAt)
	}
}

func TestClosedSourceEmptyPattern(t *testing.T) {
	e := NewEngine()
	d := NewSSD(e, "s", SSD32Config())
	done := false
	src := &ClosedSource{
		Engine:  e,
		Device:  d,
		Pattern: &RunPattern{Count: 0},
		OnDone:  func(float64) { done = true },
	}
	src.Start()
	if !done {
		t.Fatal("exhausted pattern should complete immediately")
	}
}

func TestRAID0StatsAggregation(t *testing.T) {
	e := NewEngine()
	m0 := NewDisk(e, "m0", Disk15KConfig())
	m1 := NewDisk(e, "m1", Disk15KConfig())
	g := NewRAID0(e, "g", 64<<10, m0, m1)
	src := &ClosedSource{Engine: e, Device: g, Stream: 1,
		Pattern: ScanPattern(0, 64*128<<10, 128<<10, false)}
	src.Start()
	e.Run(0)
	s := g.Stats()
	if s.Requests != 64 {
		t.Fatalf("group completed %d parent requests, want 64", s.Requests)
	}
	if s.Bytes != 64*128<<10 {
		t.Fatalf("group bytes %d", s.Bytes)
	}
	// Mean member busy time keeps utilization comparable to single
	// devices: it must be at most the max member busy time.
	if s.BusyTime > m0.Stats().BusyTime+m1.Stats().BusyTime {
		t.Fatal("group busy time exceeds the sum of members")
	}
	if s.BusyTime <= 0 {
		t.Fatal("group busy time not aggregated")
	}
}

func TestSSDConfigWithCapacity(t *testing.T) {
	cfg := SSD32Config().WithCapacity(6 << 30)
	if cfg.CapacityBytes != 6<<30 {
		t.Fatalf("capacity override failed: %d", cfg.CapacityBytes)
	}
	if base := SSD32Config(); base.CapacityBytes == cfg.CapacityBytes {
		t.Fatal("WithCapacity mutated the base config")
	}
}

func TestEngineDeviceRegistry(t *testing.T) {
	e := NewEngine()
	NewDisk(e, "a", Disk15KConfig())
	m0 := NewDisk(e, "m0", Disk15KConfig())
	NewRAID0(e, "g", 64<<10, m0)
	// Registry includes RAID members and the group itself.
	if got := len(e.Devices()); got != 3 {
		t.Fatalf("registered %d devices, want 3", got)
	}
}

func TestRequestServiceTimeAccessors(t *testing.T) {
	e := NewEngine()
	d := NewSSD(e, "s", SSD32Config())
	var req *Request
	src := &ClosedSource{Engine: e, Device: d, Stream: 1,
		Pattern:    ScanPattern(0, 8192, 8192, false),
		OnComplete: func(r *Request) { req = r }}
	src.Start()
	e.Run(0)
	if req == nil {
		t.Fatal("no completion observed")
	}
	if req.ServiceTime() <= 0 {
		t.Fatal("service time not recorded")
	}
	if req.Completed() < req.Issued() {
		t.Fatal("completion precedes issue")
	}
}
