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
	"fmt"
	"math"
)

// Request is a single block I/O request submitted to a Device.
//
// Stream identifies the logical sequential stream the request belongs to;
// devices use it to detect sequential continuation. Object identifies the
// database object for trace purposes.
//
// A device calls Done last and never touches r after it, so the submitter
// may reuse r, even resubmit it, from inside Done. A reused request must be
// reset to its zero value before it is filled in again: devices accumulate
// into its service time and set Failed.
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

// Calendar is a discrete-event calendar: a binary min-heap of events held by
// value and ordered by time, then by insertion sequence, so events due at the
// same time pop in the order they were pushed and a run replays bit for bit.
// The payload P is what its owner runs when an event pops: a callback, or a
// request's completion. Holding events by value, the calendar allocates
// nothing per event once its backing array has grown, and Pop clears the slot
// it vacates, so no popped payload (and nothing a popped closure captured)
// stays reachable through it.
//
// The zero value is an empty calendar.
type Calendar[P any] struct {
	ev  []calendarEvent[P]
	seq uint64
}

type calendarEvent[P any] struct {
	at  float64
	seq uint64 // tie-break for deterministic ordering
	p   P
}

func (a *calendarEvent[P]) before(b *calendarEvent[P]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Len returns the number of pending events.
func (c *Calendar[P]) Len() int { return len(c.ev) }

// Next returns the time of the earliest pending event. The calendar must not
// be empty.
func (c *Calendar[P]) Next() float64 { return c.ev[0].at }

// Push schedules p at time at.
func (c *Calendar[P]) Push(at float64, p P) {
	c.seq++
	x := calendarEvent[P]{at: at, seq: c.seq, p: p}
	c.ev = append(c.ev, x)
	h := c.ev
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !x.before(&h[up]) {
			break
		}
		h[i] = h[up]
		i = up
	}
	h[i] = x
}

// Pop removes the earliest event and returns its time and payload. The
// calendar must not be empty.
func (c *Calendar[P]) Pop() (float64, P) {
	h := c.ev
	top := h[0]
	n := len(h) - 1
	x := h[n]
	h[n] = calendarEvent[P]{}
	h = h[:n]
	c.ev = h
	if n > 0 {
		i := 0
		for {
			k := 2*i + 1
			if k >= n {
				break
			}
			if r := k + 1; r < n && h[r].before(&h[k]) {
				k = r
			}
			if !h[k].before(&x) {
				break
			}
			h[i] = h[k]
			i = k
		}
		h[i] = x
	}
	return top.at, top.p
}

// Engine is the discrete-event simulation core: a clock, an event calendar,
// and an optional trace recorder through which all submissions pass.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now       float64
	events    Calendar[func()]
	daemons   Calendar[func()]
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
	e.events.Push(at, fn)
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
	e.daemons.Push(at, fn)
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
	if e.events.Len() == 0 {
		return false
	}
	for e.daemons.Len() > 0 && e.daemons.Next() <= e.events.Next() {
		at, fn := e.daemons.Pop()
		if at > e.now {
			e.now = at
		}
		fn()
	}
	at, fn := e.events.Pop()
	e.now = at
	fn()
	return true
}

// Run processes events until the calendar drains or the clock passes limit
// (limit <= 0 means no limit). It returns the final simulation time.
func (e *Engine) Run(limit float64) float64 {
	for e.events.Len() > 0 {
		if limit > 0 && e.events.Next() > limit {
			e.now = limit
			break
		}
		e.Step()
	}
	return e.now
}

// Pending returns the number of events still on the calendar.
func (e *Engine) Pending() int { return e.events.Len() }
