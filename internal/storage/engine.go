// Package storage implements a discrete-event storage system simulator.
//
// The simulator substitutes for the physical testbed used in the paper's
// evaluation (four 15K RPM SCSI disks behind a RAID controller plus a SATA
// SSD). It models the device behaviours that the paper's workload and target
// models are designed to capture:
//
//   - seek + rotational positioning vs. streaming transfer on disk drives,
//   - per-device read-ahead that can track a small number of concurrent
//     sequential streams and collapses when interleaved foreign requests
//     exceed its tolerance (the effect shown in the paper's Fig. 8),
//   - queue-depth-dependent scheduling gains for random requests,
//   - RAID0 striping across member disks, and
//   - a flash SSD with flat, fast random access.
//
// Time is simulated seconds (float64); sizes and offsets are bytes.
//
// Every submitted request can be recorded as a TraceRecord. Traces persist
// as JSON lines (Trace.WriteTo); ReadTrace decodes lines in exactly that
// form without encoding/json and falls back to it for any other line.
package storage

import (
	"container/heap"
	"fmt"
	"math"
)

// Request is a single block I/O request submitted to a Device.
//
// Stream identifies the logical sequential stream the request belongs to;
// devices use it to detect sequential continuation. Object identifies the
// database object for trace purposes.
type Request struct {
	Object int              // database object index (trace annotation)
	Stream uint64           // logical stream identifier (sequentiality tracking)
	Offset int64            // byte offset on the device
	Size   int64            // bytes
	Write  bool             // false = read
	Done   func(r *Request) // invoked at completion (may be nil)
	// Failed reports that the request completed with an error instead of
	// transferring data — the device (or, for RAID groups, enough of the
	// members) had failed per its fault schedule by dispatch time.
	Failed bool

	issued   float64 // simulation time of submission
	complete float64 // simulation time of completion
	service  float64 // device busy time consumed by this request
}

// Issued returns the simulation time at which the request was submitted.
func (r *Request) Issued() float64 { return r.issued }

// Completed returns the simulation time at which the request finished.
func (r *Request) Completed() float64 { return r.complete }

// ServiceTime returns the device busy time the request consumed, excluding
// queueing delay. For RAID groups it is the mean per-member busy time, which
// keeps utilization accounting comparable across target types.
func (r *Request) ServiceTime() float64 { return r.service }

// event is a scheduled callback in the simulation calendar.
type event struct {
	at  float64
	seq uint64 // tie-break for deterministic ordering
	fn  func()
}

// eventHeap is a min-heap of events ordered by (time, sequence).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Engine is the discrete-event simulation core: a clock, an event calendar,
// and an optional trace recorder through which all submissions pass.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now       float64
	seq       uint64
	events    eventHeap
	daemons   eventHeap
	tracer    Tracer
	devices   []Device
	submitted int64
	service   float64
}

// NewEngine returns a ready-to-run simulation engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// SetTracer installs a trace recorder. Pass nil to disable tracing.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// Schedule registers fn to run at simulation time at. Scheduling in the past
// panics: it indicates a model bug rather than a recoverable condition.
func (e *Engine) Schedule(at float64, fn func()) {
	if at < e.now || math.IsNaN(at) {
		panic(fmt.Sprintf("storage: schedule at %g before now %g", at, e.now))
	}
	e.seq++
	heap.Push(&e.events, event{at: at, seq: e.seq, fn: fn})
}

// After schedules fn to run delay seconds from now.
func (e *Engine) After(delay float64, fn func()) {
	e.Schedule(e.now+delay, fn)
}

// ScheduleDaemon registers fn to run at simulation time at, but only while
// real events remain on the calendar. Daemon events carry periodic
// bookkeeping — window observers, progress samplers — that must tick during
// a run yet must never keep the simulation alive: a daemon that reschedules
// itself does not extend the run, and pending daemons are dropped when the
// calendar drains. Like Schedule, scheduling in the past panics.
func (e *Engine) ScheduleDaemon(at float64, fn func()) {
	if at < e.now || math.IsNaN(at) {
		panic(fmt.Sprintf("storage: schedule daemon at %g before now %g", at, e.now))
	}
	e.seq++
	heap.Push(&e.daemons, event{at: at, seq: e.seq, fn: fn})
}

// register attaches a device to the engine for stats reporting.
func (e *Engine) register(d Device) { e.devices = append(e.devices, d) }

// Devices returns all devices registered with the engine, including RAID
// members, in registration order.
func (e *Engine) Devices() []Device { return e.devices }

// Submit routes a request to the device, recording it in the trace.
func (e *Engine) Submit(d Device, r *Request) {
	r.issued = e.now
	e.submitted++
	if e.tracer != nil {
		e.tracer.Record(TraceRecord{
			Time:   e.now,
			Object: r.Object,
			Stream: r.Stream,
			Target: d.Name(),
			Offset: r.Offset,
			Size:   r.Size,
			Write:  r.Write,
		})
	}
	d.Submit(r)
}

// Submitted returns the total number of requests submitted via the engine.
func (e *Engine) Submitted() int64 { return e.submitted }

// noteService accumulates device service time as it is scheduled.
func (e *Engine) noteService(st float64) { e.service += st }

// ServiceTime returns the total device service time scheduled so far, summed
// over all devices. By construction it equals the sum of the devices'
// DeviceStats.BusyTime — the invariant the instrumentation tests pin.
func (e *Engine) ServiceTime() float64 { return e.service }

// Step executes the next pending event and returns false when the calendar
// is empty. Daemon events due at or before the next real event run first (in
// time order), so periodic observers see the clock advance even through long
// gaps between real events; a daemon may schedule real events, which the
// loop condition re-reads.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	for len(e.daemons) > 0 && e.daemons[0].at <= e.events[0].at {
		d := heap.Pop(&e.daemons).(event)
		if d.at > e.now {
			e.now = d.at
		}
		d.fn()
	}
	ev := heap.Pop(&e.events).(event)
	e.now = ev.at
	ev.fn()
	return true
}

// Run processes events until the calendar drains or the clock passes limit
// (limit <= 0 means no limit). It returns the final simulation time.
func (e *Engine) Run(limit float64) float64 {
	for len(e.events) > 0 {
		if limit > 0 && e.events[0].at > limit {
			e.now = limit
			break
		}
		e.Step()
	}
	return e.now
}

// Pending returns the number of events still on the calendar.
func (e *Engine) Pending() int { return len(e.events) }
