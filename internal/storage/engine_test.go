package storage

import (
	"fmt"
	"math"
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(2.0, func() { order = append(order, 2) })
	e.Schedule(1.0, func() { order = append(order, 1) })
	e.Schedule(3.0, func() { order = append(order, 3) })
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 3.0 {
		t.Fatalf("final time = %g, want 3.0", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1.0, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

// TestCalendarOrderAndRelease: events pop by time, then in push order among
// equal times, and a popped slot keeps no payload.
func TestCalendarOrderAndRelease(t *testing.T) {
	var c Calendar[*int]
	times := []float64{3, 1, 2, 1, 3, 0.5, 2, 1}
	vals := make([]int, len(times))
	for i, at := range times {
		vals[i] = i
		c.Push(at, &vals[i])
	}
	var got []int
	last := math.Inf(-1)
	for c.Len() > 0 {
		if next := c.Next(); next < last {
			t.Fatalf("Next %g after popping %g", next, last)
		}
		at, p := c.Pop()
		last = at
		got = append(got, *p)
	}
	want := []int{5, 1, 3, 7, 2, 6, 0, 4}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
	for i, ev := range c.ev[:cap(c.ev)] {
		if ev.p != nil {
			t.Fatalf("slot %d still holds a popped payload", i)
		}
	}
}

// TestEngineScheduleAllocFree: once the calendar has grown, scheduling and
// running an event allocates nothing.
func TestEngineScheduleAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 8; i++ {
		e.After(float64(i), fn)
	}
	e.Run(0)
	if n := testing.AllocsPerRun(1000, func() {
		e.After(1e-3, fn)
		e.Step()
	}); n != 0 {
		t.Fatalf("After plus Step allocates %v per event, want 0", n)
	}
}

func TestEngineRunLimit(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(5.0, func() { fired = true })
	e.Run(2.0)
	if fired {
		t.Fatal("event beyond limit fired")
	}
	if e.Now() != 2.0 {
		t.Fatalf("clock = %g, want 2.0 (limit)", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(1.0, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(0.5, func() {})
	})
	e.Run(0)
}

func TestEngineAfterCascade(t *testing.T) {
	e := NewEngine()
	var times []float64
	var step func()
	step = func() {
		times = append(times, e.Now())
		if len(times) < 4 {
			e.After(0.25, step)
		}
	}
	e.After(0.25, step)
	e.Run(0)
	want := []float64{0.25, 0.5, 0.75, 1.0}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-12 {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestDiskSequentialVsRandom(t *testing.T) {
	e := NewEngine()
	d := NewDisk(e, "d0", Disk15KConfig())

	// One purely sequential stream.
	var seqTimes []float64
	var last float64
	n := int64(100)
	src := &ClosedSource{
		Engine:  e,
		Device:  d,
		Stream:  1,
		Pattern: ScanPattern(0, n*8192, 8192, false),
		OnDone:  func(at float64) { last = at },
	}
	src.Start()
	e.Run(0)
	seqPerReq := last / float64(n)
	seqTimes = append(seqTimes, seqPerReq)

	// A purely random stream of the same size and count.
	e2 := NewEngine()
	d2 := NewDisk(e2, "d1", Disk15KConfig())
	var last2 float64
	src2 := &ClosedSource{
		Engine:  e2,
		Device:  d2,
		Stream:  1,
		Pattern: &RunPattern{Rng: newTestRand(1), Extent: 8 << 30, Size: 8192, RunLen: 1, Count: n},
		OnDone:  func(at float64) { last2 = at },
	}
	src2.Start()
	e2.Run(0)
	randPerReq := last2 / float64(n)

	if seqPerReq >= randPerReq/10 {
		t.Fatalf("sequential %.3gms not ≫ faster than random %.3gms", seqPerReq*1e3, randPerReq*1e3)
	}
	_ = seqTimes
	if hits := d.Stats().SeqHits; hits < n-2 {
		t.Fatalf("sequential stream got %d seq hits, want >= %d", hits, n-2)
	}
	if hits := d2.Stats().SeqHits; hits != 0 {
		t.Fatalf("random stream got %d seq hits, want 0", hits)
	}
}

// TestDiskInterferenceCollapse reproduces the core Fig. 8 effect: a
// sequential stream keeps its advantage against light interference but
// collapses to positioning-dominated service when enough temporally
// correlated foreign requests interleave.
func TestDiskInterferenceCollapse(t *testing.T) {
	perReq := func(nCompetitors int) float64 {
		e := NewEngine()
		d := NewDisk(e, "d", Disk15KConfig())
		n := int64(400)
		var doneAt float64
		main := &ClosedSource{
			Engine:  e,
			Device:  d,
			Stream:  1,
			Pattern: &RunPattern{Rng: newTestRand(7), Extent: 4 << 30, Size: 8192, RunLen: 64, Count: n},
			OnDone:  func(at float64) { doneAt = at },
		}
		main.Start()
		for c := 0; c < nCompetitors; c++ {
			comp := &ClosedSource{
				Engine:  e,
				Device:  d,
				Stream:  uint64(100 + c),
				Pattern: &RunPattern{Rng: newTestRand(int64(50 + c)), Extent: 4 << 30, Size: 8192, RunLen: 1, Count: -1},
			}
			comp.Start()
		}
		e.Run(600)
		if doneAt == 0 {
			t.Fatalf("main stream did not finish with %d competitors", nCompetitors)
		}
		return doneAt / float64(n)
	}

	alone := perReq(0)
	heavy := perReq(6)
	if heavy < 8*alone {
		t.Fatalf("interference collapse too weak: alone %.3gms, heavy %.3gms", alone*1e3, heavy*1e3)
	}
}

func TestDiskQueueSchedulingGain(t *testing.T) {
	// Random request service should be cheaper at high queue depth.
	cost := func(depth int) float64 {
		e := NewEngine()
		d := NewDisk(e, "d", Disk15KConfig())
		r := &Request{Stream: 1, Offset: 1 << 30, Size: 8192}
		return d.serviceTime(r, depth)
	}
	if c0, c16 := cost(0), cost(16); c16 >= c0 {
		t.Fatalf("no scheduling gain: depth 0 %.3gms, depth 16 %.3gms", c0*1e3, c16*1e3)
	}
}

func TestSSDFlatAccess(t *testing.T) {
	e := NewEngine()
	s := NewSSD(e, "ssd", SSD32Config())
	seq := s.serviceTime(&Request{Stream: 1, Offset: 0, Size: 8192}, 0)
	rnd := s.serviceTime(&Request{Stream: 1, Offset: 4 << 30, Size: 8192}, 0)
	if seq != rnd {
		t.Fatalf("SSD random %.3gms != sequential %.3gms", rnd*1e3, seq*1e3)
	}
	w := s.serviceTime(&Request{Stream: 1, Offset: 0, Size: 8192, Write: true}, 0)
	if w <= seq {
		t.Fatalf("SSD write %.3gms not slower than read %.3gms", w*1e3, seq*1e3)
	}
}

func TestSSDFasterThanDiskForRandom(t *testing.T) {
	e := NewEngine()
	d := NewDisk(e, "d", Disk15KConfig())
	s := NewSSD(e, "s", SSD32Config())
	dr := d.serviceTime(&Request{Stream: 9, Offset: 1 << 30, Size: 8192}, 0)
	sr := s.serviceTime(&Request{Stream: 9, Offset: 1 << 30, Size: 8192}, 0)
	if sr >= dr/5 {
		t.Fatalf("SSD random read %.3gms not ≫ faster than disk %.3gms", sr*1e3, dr*1e3)
	}
}

func TestRAID0SplitAndJoin(t *testing.T) {
	e := NewEngine()
	m0 := NewDisk(e, "m0", Disk15KConfig())
	m1 := NewDisk(e, "m1", Disk15KConfig())
	g := NewRAID0(e, "g", 64<<10, m0, m1)

	var completed bool
	req := &Request{Stream: 1, Offset: 0, Size: 256 << 10, Done: func(_ *Request) { completed = true }}
	e.Submit(g, req)
	e.Run(0)
	if !completed {
		t.Fatal("RAID0 request did not complete")
	}
	s0, s1 := m0.Stats(), m1.Stats()
	if s0.Bytes != 128<<10 || s1.Bytes != 128<<10 {
		t.Fatalf("bytes split %d/%d, want 131072/131072", s0.Bytes, s1.Bytes)
	}
	if s0.Requests != 2 || s1.Requests != 2 {
		t.Fatalf("requests split %d/%d, want 2/2", s0.Requests, s1.Requests)
	}
}

func TestRAID0SequentialScanStaysSequentialPerMember(t *testing.T) {
	e := NewEngine()
	m0 := NewDisk(e, "m0", Disk15KConfig())
	m1 := NewDisk(e, "m1", Disk15KConfig())
	m2 := NewDisk(e, "m2", Disk15KConfig())
	g := NewRAID0(e, "g", 64<<10, m0, m1, m2)

	var doneAt float64
	src := &ClosedSource{
		Engine:  e,
		Device:  g,
		Stream:  1,
		Pattern: ScanPattern(0, 512<<20, 128<<10, false),
		OnDone:  func(at float64) { doneAt = at },
	}
	src.Start()
	e.Run(0)

	total := m0.Stats().Requests + m1.Stats().Requests + m2.Stats().Requests
	hits := m0.Stats().SeqHits + m1.Stats().SeqHits + m2.Stats().SeqHits
	if float64(hits) < 0.95*float64(total) {
		t.Fatalf("only %d/%d member requests were sequential", hits, total)
	}
	// Aggregate bandwidth should beat a single disk's streaming rate.
	bw := float64(512<<20) / doneAt
	single := Disk15KConfig().TransferRate
	if bw < 1.5*single {
		t.Fatalf("RAID0 bandwidth %.1f MB/s not > 1.5x single disk %.1f MB/s", bw/(1<<20), single/(1<<20))
	}
}

func TestRAID0CapacityIsMinMemberTimesCount(t *testing.T) {
	e := NewEngine()
	small := Disk15KConfig()
	small.CapacityBytes = 10 << 30
	m0 := NewDisk(e, "m0", small)
	m1 := NewDisk(e, "m1", Disk15KConfig())
	g := NewRAID0(e, "g", 64<<10, m0, m1)
	if got, want := g.Capacity(), int64(20<<30); got != want {
		t.Fatalf("capacity = %d, want %d", got, want)
	}
}

func TestTraceRecording(t *testing.T) {
	e := NewEngine()
	tr := &Trace{}
	e.SetTracer(tr)
	d := NewDisk(e, "d", Disk15KConfig())
	src := &ClosedSource{Engine: e, Device: d, Object: 3, Stream: 1,
		Pattern: ScanPattern(0, 10*8192, 8192, false)}
	src.Start()
	e.Run(0)
	if tr.Len() != 10 {
		t.Fatalf("trace has %d records, want 10", tr.Len())
	}
	for i, rec := range tr.Records {
		if rec.Object != 3 || rec.Target != "d" || rec.Size != 8192 {
			t.Fatalf("record %d = %+v", i, rec)
		}
		if i > 0 && rec.Time < tr.Records[i-1].Time {
			t.Fatalf("trace times not monotone at %d", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		e := NewEngine()
		d := NewDisk(e, "d", Disk15KConfig())
		var doneAt float64
		src := &ClosedSource{Engine: e, Device: d, Stream: 1,
			Pattern: &RunPattern{Rng: newTestRand(42), Extent: 1 << 30, Size: 8192, RunLen: 8, Count: 500},
			OnDone:  func(at float64) { doneAt = at }}
		src.Start()
		comp := &ClosedSource{Engine: e, Device: d, Stream: 2,
			Pattern: &RunPattern{Rng: newTestRand(43), Extent: 1 << 30, Size: 8192, RunLen: 1, Count: -1},
			Think:   0.02}
		comp.Start()
		e.Run(300)
		return doneAt
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("simulation not deterministic: %g vs %g", a, b)
	}
}

// TestEngineDaemonTicks verifies daemon events interleave with real events in
// time order but never extend the run: the daemon below self-reschedules
// forever, yet the run still ends at the last real event.
func TestEngineDaemonTicks(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(1.0, func() { order = append(order, "real@1") })
	e.Schedule(3.0, func() { order = append(order, "real@3") })
	var tick func()
	tick = func() {
		order = append(order, fmt.Sprintf("tick@%g", e.Now()))
		e.ScheduleDaemon(e.Now()+0.5, tick)
	}
	e.ScheduleDaemon(0.5, tick)
	if got := e.Run(0); got != 3.0 {
		t.Fatalf("final time = %g, want 3.0 (daemon must not extend run)", got)
	}
	// A daemon due exactly at a real event's time runs before it.
	want := []string{"tick@0.5", "tick@1", "real@1", "tick@1.5", "tick@2", "tick@2.5", "tick@3", "real@3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// The still-pending daemon does not count as a pending real event.
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

// TestEngineDaemonSchedulesRealEvent pins that a daemon may inject real
// events: the loop re-reads the calendar head, so the injected event runs at
// its own time, not after the next pre-existing real event.
func TestEngineDaemonSchedulesRealEvent(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(10, func() { order = append(order, "real@10") })
	e.ScheduleDaemon(1, func() {
		order = append(order, "tick@1")
		e.Schedule(2, func() { order = append(order, "injected@2") })
	})
	e.Run(0)
	want := []string{"tick@1", "injected@2", "real@10"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestEngineDaemonNeedsRealEvents: with nothing but daemons on the calendar,
// the engine does not run them — bookkeeping has nothing to observe.
func TestEngineDaemonNeedsRealEvents(t *testing.T) {
	e := NewEngine()
	fired := false
	e.ScheduleDaemon(1, func() { fired = true })
	if got := e.Run(0); got != 0 {
		t.Fatalf("final time = %g, want 0", got)
	}
	if fired {
		t.Fatal("daemon fired with no real events on the calendar")
	}
}

func TestEngineScheduleDaemonPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(1.0, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling a daemon in the past did not panic")
			}
		}()
		e.ScheduleDaemon(0.5, func() {})
	})
	e.Run(0)
}
