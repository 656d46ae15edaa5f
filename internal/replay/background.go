package replay

import (
	"fmt"

	"dblayout/internal/layout"
)

// BackgroundIO gives a background driver (the online-migration engine in
// package migrate) direct access to the running simulation: it can inspect
// device queues, schedule simulated-time callbacks, and submit block I/O
// that contends with the foreground replay traffic on the same devices.
//
// Requests submitted with a valid object index are recorded in that object's
// latency histogram alongside foreground requests, so background-copy cost
// shows up in per-object latency distributions.
type BackgroundIO struct {
	r *runner
}

// Now returns the current simulation time in seconds.
func (b *BackgroundIO) Now() float64 { return b.r.eng.Now() }

// After schedules fn to run delay simulated seconds from now.
func (b *BackgroundIO) After(delay float64, fn func()) { b.r.eng.After(delay, fn) }

// Devices returns the number of storage targets.
func (b *BackgroundIO) Devices() int { return len(b.r.devices) }

// DeviceName returns the name of target j.
func (b *BackgroundIO) DeviceName(j int) string { return b.r.devices[j].Name() }

// Capacity returns the capacity of target j in bytes.
func (b *BackgroundIO) Capacity(j int) int64 { return b.r.devices[j].Capacity() }

// QueueDepth returns the number of requests currently waiting on target j
// (excluding the one in service) — the signal throttles use to yield to
// foreground traffic.
func (b *BackgroundIO) QueueDepth(j int) int { return b.r.devices[j].Stats().QueueDepth }

// NewStream allocates a fresh logical stream identifier, letting sequential
// background copies benefit from (and compete for) device read-ahead like
// any other stream.
func (b *BackgroundIO) NewStream() uint64 { return b.r.nextStreamID() }

// Submit issues one block request against target dev. obj attributes the
// request to a database object's latency histogram (pass a negative index
// for unattributed I/O). done receives true when the request failed because
// the device had failed per its fault schedule.
func (b *BackgroundIO) Submit(dev, obj int, stream uint64, off, size int64, write bool, done func(failed bool)) {
	if dev < 0 || dev >= len(b.r.devices) {
		panic(fmt.Sprintf("replay: background submit to device %d of %d", dev, len(b.r.devices)))
	}
	b.r.submit(b.r.devices[dev], obj, stream, off, size, write, done)
}

// startBackground invokes the configured background driver, if any.
func (r *runner) startBackground() {
	if r.opt.Background != nil {
		r.opt.Background(&BackgroundIO{r: r})
	}
}

// RunIdle runs a system with no foreground workload: only the background
// driver (Options.Background) generates I/O. It is how migrations execute
// against an otherwise quiescent system; the layout must be the regular
// layout currently implemented by the LVM, as in RunOLAP. The result's
// Queries count is zero and Elapsed is the time the background work took.
func RunIdle(sys *System, l *layout.Layout, opt Options) (*OLAPResult, error) {
	opt = opt.withDefaults()
	if opt.Background == nil {
		return nil, fmt.Errorf("replay: RunIdle needs Options.Background")
	}
	r, tr, err := newRunner(sys, l, opt)
	if err != nil {
		return nil, err
	}
	r.startBackground()
	elapsed := r.eng.Run(opt.MaxSimTime)
	if r.eng.Pending() > 0 {
		return nil, fmt.Errorf("replay: background work did not finish within %g simulated seconds", opt.MaxSimTime)
	}
	res := &OLAPResult{
		Elapsed:  elapsed,
		Requests: r.eng.Submitted(),
		Trace:    tr,
	}
	res.Utilizations, res.DeviceStats, res.ObjectLatency = r.observe(elapsed)
	return res, nil
}
