package storage

// Device is a storage target that services block I/O requests.
//
// Devices are attached to an Engine at construction time and schedule their
// own completion events on it. All submissions should go through
// Engine.Submit so they are captured by the trace recorder.
type Device interface {
	// Name identifies the device in traces and reports.
	Name() string
	// Capacity returns the device capacity in bytes.
	Capacity() int64
	// Submit enqueues a request for service.
	Submit(r *Request)
	// Stats returns a snapshot of the device's counters.
	Stats() DeviceStats
}

// DeviceStats is a snapshot of a device's activity counters.
type DeviceStats struct {
	Requests     int64   // requests completed
	Bytes        int64   // bytes transferred (reads + writes)
	BytesRead    int64   // bytes read
	BytesWritten int64   // bytes written
	BusyTime     float64 // seconds spent servicing requests
	SeqHits      int64   // requests serviced via the sequential fast path
	// RAEvictions counts read-ahead cache segments recycled to admit a
	// new stream: each one is a tracked sequential stream pushed off the
	// drive's fast path by interleaving competitors.
	RAEvictions int64
	// RACollapses counts stream-continuing (contiguous) requests that
	// nonetheless paid full positioning because their segment had been
	// evicted — the per-request signature of the paper's Fig. 8
	// interference collapse.
	RACollapses int64
	QueueDepth  int // requests currently waiting (excluding in service)
	// MaxQueueDepth is the deepest the wait queue ever got.
	MaxQueueDepth int
	// DepthIntegral is the time integral of the wait-queue depth
	// (request-seconds); divide by elapsed time for the mean depth.
	DepthIntegral float64

	// FailedRequests counts requests that completed with Request.Failed
	// set (the device had failed per its fault schedule). Failed requests
	// are included in Requests but transfer no bytes.
	FailedRequests int64
	// FaultDelay is the extra service time (seconds) injected by stall and
	// slow-disk faults; it is included in BusyTime.
	FaultDelay float64
	// ReconstructReads counts the extra member reads a degraded RAID group
	// issued to rebuild data that resided on a failed member.
	ReconstructReads int64
}

// Utilization returns the fraction of the elapsed time the device was busy.
func (s DeviceStats) Utilization(elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return s.BusyTime / elapsed
}

// MeanQueueDepth returns the time-averaged wait-queue depth over the given
// elapsed simulation time.
func (s DeviceStats) MeanQueueDepth(elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return s.DepthIntegral / elapsed
}

// queueDevice implements the single-server queueing skeleton shared by the
// disk and SSD models. The embedding model supplies the service-time
// function; the skeleton handles FIFO queueing, busy bookkeeping, and
// completion callbacks. It allocates nothing per request: the request in
// service sits in one slot, its completion event is a callback bound once at
// construction, and the wait queue reuses its backing array.
type queueDevice struct {
	engine *Engine
	name   string
	cap    int64

	// queue[head:] are the waiting requests in arrival order. Service
	// takes from head, so the array is reused rather than resliced away.
	queue     []*Request
	head      int
	cur       *Request // the request in service; nil when idle
	finishCur func()   // d.finish, bound once so dispatch allocates nothing
	stats     DeviceStats
	depthMark float64 // last time the depth integral was advanced
	service   func(r *Request, queueDepth int) float64
	faults    *FaultSchedule
}

// attach binds the skeleton to the engine; the embedding model registers
// itself afterwards.
func (d *queueDevice) attach(e *Engine, name string, capacity int64, service func(r *Request, queueDepth int) float64) {
	*d = queueDevice{engine: e, name: name, cap: capacity, service: service}
	d.finishCur = d.finish
}

// InjectFaults installs a deterministic fault schedule on the device. Disk
// and SSD inherit it; calling it again replaces the schedule. Requests
// already in service are unaffected.
func (d *queueDevice) InjectFaults(f FaultSchedule) error {
	if err := f.Validate(); err != nil {
		return err
	}
	d.faults = &f
	return nil
}

// waiting returns the number of requests waiting for service (excluding the
// one in service).
func (d *queueDevice) waiting() int { return len(d.queue) - d.head }

// noteDepth advances the queue-depth time integral up to now; call before
// any change to the queue length.
func (d *queueDevice) noteDepth() {
	now := d.engine.Now()
	d.stats.DepthIntegral += float64(d.waiting()) * (now - d.depthMark)
	d.depthMark = now
}

func (d *queueDevice) Name() string    { return d.name }
func (d *queueDevice) Capacity() int64 { return d.cap }

func (d *queueDevice) Stats() DeviceStats {
	s := d.stats
	s.QueueDepth = d.waiting()
	return s
}

func (d *queueDevice) Submit(r *Request) {
	d.noteDepth()
	if len(d.queue) == cap(d.queue) && d.head >= len(d.queue)/2 {
		// At least half the array is served slots: slide the waiting
		// requests to the front instead of growing it, so each request
		// moves a bounded number of times on average.
		n := copy(d.queue, d.queue[d.head:])
		clear(d.queue[n:])
		d.queue, d.head = d.queue[:n], 0
	}
	d.queue = append(d.queue, r)
	if d.cur == nil {
		d.dispatch()
	}
	// Measured after the idle-dispatch so it matches QueueDepth's
	// "waiting, excluding in service" semantics.
	if n := d.waiting(); n > d.stats.MaxQueueDepth {
		d.stats.MaxQueueDepth = n
	}
}

// dispatch starts service on the request at the head of the queue, applying
// the fault schedule: a failed device completes the request quickly with
// Request.Failed set; stall and slow faults inflate the service time. Either
// way the time counts as busy, preserving the engine's service-time
// invariant.
func (d *queueDevice) dispatch() {
	d.noteDepth()
	r := d.queue[d.head]
	d.queue[d.head] = nil
	if d.head++; d.head == len(d.queue) {
		d.queue, d.head = d.queue[:0], 0
	}
	d.cur = r
	now := d.engine.Now()
	var st float64
	if d.faults.failedAt(now) {
		r.Failed = true
		d.stats.FailedRequests++
		st = failLatency
	} else {
		st = d.service(r, d.waiting())
		if penalized := d.faults.penalize(now, st); penalized != st {
			d.stats.FaultDelay += penalized - st
			st = penalized
		}
	}
	r.service = st
	d.stats.BusyTime += st
	d.engine.noteService(st)
	d.engine.After(st, d.finishCur)
}

// finish completes the request in service, starts the next one, and only
// then calls the finished request's Done, so Done may resubmit it.
func (d *queueDevice) finish() {
	r := d.cur
	d.cur = nil
	d.stats.Requests++
	if !r.Failed {
		d.stats.Bytes += r.Size
		if r.Write {
			d.stats.BytesWritten += r.Size
		} else {
			d.stats.BytesRead += r.Size
		}
	}
	r.complete = d.engine.Now()
	if d.waiting() > 0 {
		d.dispatch()
	}
	if r.Done != nil {
		r.Done(r)
	}
}
