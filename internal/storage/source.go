package storage

import "math/rand"

// AccessPattern produces the successive requests of one I/O stream.
// Implementations must be deterministic given their own RNG so that
// simulations are reproducible.
type AccessPattern interface {
	// Next returns the next request's placement, or ok=false when the
	// stream is exhausted.
	Next() (offset, size int64, write bool, ok bool)
}

// RunPattern generates runs of sequential requests separated by random
// jumps — the access shape the Rome run-count parameter describes. RunLen=1
// yields a purely random pattern; a RunLen covering the whole extent yields
// one long scan.
type RunPattern struct {
	Rng       *rand.Rand // randomness source (required unless fully sequential)
	Base      int64      // first addressable byte
	Extent    int64      // addressable bytes after Base
	Size      int64      // request size in bytes
	RunLen    int64      // requests per sequential run (>= 1)
	Count     int64      // total requests to produce; < 0 means unbounded
	WriteFrac float64    // probability a run is a run of writes

	issued  int64
	inRun   int64
	off     int64
	writing bool
	started bool
}

// Next implements AccessPattern.
func (p *RunPattern) Next() (int64, int64, bool, bool) {
	if p.Count >= 0 && p.issued >= p.Count {
		return 0, 0, false, false
	}
	if p.RunLen < 1 {
		p.RunLen = 1
	}
	if !p.started || p.inRun >= p.RunLen || p.off+p.Size > p.Base+p.Extent {
		// Start a new run at a random aligned position.
		p.started = true
		p.inRun = 0
		slots := p.Extent / p.Size
		if slots < 1 {
			slots = 1
		}
		var slot int64
		if p.Rng != nil {
			slot = p.Rng.Int63n(slots)
		}
		p.off = p.Base + slot*p.Size
		p.writing = p.WriteFrac > 0 && (p.WriteFrac >= 1 || (p.Rng != nil && p.Rng.Float64() < p.WriteFrac))
	}
	off := p.off
	p.off += p.Size
	p.inRun++
	p.issued++
	return off, p.Size, p.writing, true
}

// ScanPattern returns a pattern that reads (or writes) the extent
// [base, base+extent) once, sequentially, in size-byte requests.
func ScanPattern(base, extent, size int64, write bool) *RunPattern {
	count := extent / size
	if count < 1 {
		count = 1
	}
	wf := 0.0
	if write {
		wf = 1.0
	}
	return &RunPattern{Base: base, Extent: extent, Size: size, RunLen: count, Count: count, WriteFrac: wf}
}

// ClosedSource drives an AccessPattern against a device in a closed loop:
// the next request is issued Think seconds after the previous one completes.
// This models a synchronous I/O path such as a database scan. Its one
// request in flight is held by value and reused, so a source allocates
// nothing per request; a ClosedSource must not be copied once started.
type ClosedSource struct {
	Engine  *Engine
	Device  Device
	Object  int
	Stream  uint64
	Pattern AccessPattern
	Think   float64          // delay between completion and next issue
	OnDone  func(at float64) // invoked when the pattern is exhausted
	// OnComplete, when non-nil, observes every completed request (used by
	// the cost-model calibration harness to measure service times). The
	// request is the source's own and is reused for the next issue, so
	// read what is needed during the call.
	OnComplete func(r *Request)

	req  Request
	done func(*Request) // s.complete, bound once by Start
	next func()         // s.issueNext, bound once by Start
}

// Start issues the stream's first request. It is a no-op on an exhausted
// pattern (OnDone fires immediately).
func (s *ClosedSource) Start() {
	s.done, s.next = s.complete, s.issueNext
	s.issueNext()
}

func (s *ClosedSource) issueNext() {
	off, size, write, ok := s.Pattern.Next()
	if !ok {
		if s.OnDone != nil {
			s.OnDone(s.Engine.Now())
		}
		return
	}
	s.req = Request{
		Object: s.Object,
		Stream: s.Stream,
		Offset: off,
		Size:   size,
		Write:  write,
		Done:   s.done,
	}
	s.Engine.Submit(s.Device, &s.req)
}

// complete observes the finished request and issues the next one, now or
// after the think time.
func (s *ClosedSource) complete(r *Request) {
	if s.OnComplete != nil {
		s.OnComplete(r)
	}
	if s.Think > 0 {
		s.Engine.After(s.Think, s.next)
	} else {
		s.issueNext()
	}
}
