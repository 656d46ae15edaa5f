package replay

import (
	"fmt"
	"log/slog"
	"math/rand"

	"dblayout/internal/benchdb"
	"dblayout/internal/layout"
	"dblayout/internal/obs"
	"dblayout/internal/seed"
	"dblayout/internal/storage"
)

// Options controls a replay run.
type Options struct {
	// Seed drives query permutation and random access patterns.
	Seed int64
	// RecordTrace captures the block I/O trace of the run (the input to
	// workload fitting, as in the paper's methodology).
	RecordTrace bool
	// Tracer, when non-nil, additionally observes every request online —
	// e.g. a rubicon.Fitter, which fits workload models without storing
	// the trace.
	Tracer storage.Tracer
	// MaxSimTime aborts runaway simulations (default 2e6 seconds).
	MaxSimTime float64
	// PrefetchDepth is the number of outstanding requests a sequential
	// stream keeps in flight, modelling OS read-ahead; it is what lets a
	// striped scan draw bandwidth from several targets at once. Random
	// streams are always synchronous. Default 1: the synchronous scan
	// behaviour of the paper's PostgreSQL-era Linux, whose small
	// read-ahead window never spanned multiple LVM stripes.
	PrefetchDepth int
	// Metrics, when non-nil, receives the run's aggregated counters and
	// per-object latency histograms (metric families replay_* with
	// device/object labels). Runs sharing a registry accumulate into the
	// same counters. Nil disables registry publication; per-object
	// latency histograms in the results are collected either way.
	Metrics *obs.Registry
	// Logger, when non-nil, receives a run-completion summary. Nil
	// disables logging.
	Logger *slog.Logger
	// Background, when non-nil, is invoked once the system is built and
	// the foreground workload (if any) is scheduled, handing the driver a
	// BackgroundIO through which it injects its own I/O — e.g. an online
	// migration's throttled copy stream — into the same simulation.
	// Honoured by RunOLAP and RunIdle (RunOLTP and RunConsolidated run to
	// a fixed horizon and would truncate background work arbitrarily).
	Background func(*BackgroundIO)
	// Windows, when non-nil, enables windowed model-validation
	// instrumentation: per-device observed-utilization series, prediction
	// error against the supplied model predictions, and optional drift
	// detection. See WindowConfig.
	Windows *WindowConfig
}

func (o Options) withDefaults() Options {
	if o.MaxSimTime <= 0 {
		o.MaxSimTime = 2e6
	}
	if o.PrefetchDepth <= 0 {
		o.PrefetchDepth = 1
	}
	return o
}

// OLAPResult reports an OLAP replay.
type OLAPResult struct {
	// Elapsed is the wall-clock completion time of the whole query
	// sequence in simulated seconds — the paper's primary metric.
	Elapsed float64
	// Queries is the number of queries executed.
	Queries int
	// Requests is the number of block I/O requests issued.
	Requests int64
	// Utilizations are the measured per-target busy fractions.
	Utilizations []float64
	// DeviceStats are the per-target simulator counters at the end of the
	// run (same order as the system's devices): queue depths, sequential
	// hits, read-ahead evictions/collapses, byte splits.
	DeviceStats []storage.DeviceStats
	// ObjectLatency holds one request-latency histogram snapshot per
	// database object (same order as the system's objects), in seconds.
	ObjectLatency []obs.HistogramSnapshot
	// Trace is the captured block trace (nil unless requested).
	Trace *storage.Trace
}

// runner holds the shared machinery of a replay run.
type runner struct {
	sys      *System
	eng      *storage.Engine
	devices  []storage.Device
	m        *mapper
	objIdx   map[string]int
	rng      *rand.Rand
	streamID uint64
	prefetch int
	opt      Options
	// latency holds one histogram per object, fed by submit. When a
	// metrics registry is configured the histograms live in it (and so
	// appear in its Prometheus/JSON output); otherwise they are private
	// to the run and only surface as result snapshots.
	latency []*obs.Histogram
	// windows is the per-window utilization observer (nil unless
	// Options.Windows was set).
	windows *windowObserver
	// free lists the requests no longer in flight, for submit to reuse.
	free *inflight
}

func newRunner(sys *System, l *layout.Layout, opt Options) (*runner, *storage.Trace, error) {
	if err := sys.Validate(); err != nil {
		return nil, nil, err
	}
	eng := storage.NewEngine()
	var tr *storage.Trace
	var tracers []storage.Tracer
	if opt.RecordTrace {
		tr = &storage.Trace{}
		tracers = append(tracers, tr)
	}
	if opt.Tracer != nil {
		tracers = append(tracers, opt.Tracer)
	}
	eng.SetTracer(storage.MultiTracer(tracers...))
	devices := make([]storage.Device, len(sys.Devices))
	for j, d := range sys.Devices {
		devices[j] = d.Build(eng)
	}
	m, err := newMapper(sys, l, devices)
	if err != nil {
		return nil, nil, err
	}
	latency := make([]*obs.Histogram, len(sys.Objects))
	for i, o := range sys.Objects {
		if opt.Metrics != nil {
			latency[i] = opt.Metrics.Histogram(
				obs.Name("replay_object_latency_seconds", "object", o.Name),
				obs.LatencyBuckets())
		} else {
			latency[i] = obs.NewHistogram(obs.LatencyBuckets())
		}
	}
	r := &runner{
		sys:      sys,
		eng:      eng,
		devices:  devices,
		m:        m,
		objIdx:   sys.objectIndex(),
		rng:      rand.New(rand.NewSource(seed.Sub(opt.Seed, seed.StreamReplay))),
		prefetch: opt.PrefetchDepth,
		opt:      opt,
		latency:  latency,
	}
	if opt.Windows != nil {
		names := make([]string, len(devices))
		for j, d := range devices {
			names[j] = d.Name()
		}
		r.windows, err = newWindowObserver(eng, devices, names, opt.Metrics, *opt.Windows)
		if err != nil {
			return nil, nil, err
		}
	}
	return r, tr, nil
}

// inflight is one request of the run in flight: the storage request plus the
// continuation its completion runs. Entries come from the runner's free list
// and bind their completion once, so a request allocates nothing.
type inflight struct {
	req  storage.Request
	r    *runner
	then func(failed bool)
	done func(*storage.Request) // q.complete, bound once
	next *inflight              // free-list link
}

// submit routes a request through the engine. Its completion records the
// latency in the object's histogram (for a valid object index), returns the
// request to the free list, then calls then, if non-nil, with whether the
// request failed.
func (r *runner) submit(dev storage.Device, obj int, stream uint64, off, size int64, write bool, then func(failed bool)) {
	q := r.free
	if q != nil {
		r.free = q.next
	} else {
		q = &inflight{r: r}
		q.done = q.complete
	}
	q.req = storage.Request{Object: obj, Stream: stream, Offset: off, Size: size, Write: write, Done: q.done}
	q.then = then
	r.eng.Submit(dev, &q.req)
}

func (q *inflight) complete(req *storage.Request) {
	r := q.r
	if req.Object >= 0 && req.Object < len(r.latency) {
		r.latency[req.Object].Observe(req.Completed() - req.Issued())
	}
	then, failed := q.then, req.Failed
	q.then, q.next, r.free = nil, r.free, q
	if then != nil {
		then(failed)
	}
}

// observe snapshots the run's instrumentation at the end of a replay: the
// measured per-target utilizations, device counters, and per-object latency
// histograms. When a metrics registry is configured the aggregates are also
// published there, and a configured logger receives a summary record.
func (r *runner) observe(elapsed float64) ([]float64, []storage.DeviceStats, []obs.HistogramSnapshot) {
	r.windows.finish(elapsed)
	utils := make([]float64, len(r.devices))
	stats := make([]storage.DeviceStats, len(r.devices))
	for j, d := range r.devices {
		stats[j] = d.Stats()
		utils[j] = stats[j].Utilization(elapsed)
	}
	lats := make([]obs.HistogramSnapshot, len(r.latency))
	for i, h := range r.latency {
		lats[i] = h.Snapshot()
	}
	if reg := r.opt.Metrics; reg != nil {
		reg.Gauge("replay_elapsed_seconds").Set(elapsed)
		reg.Counter("replay_requests_total").Add(r.eng.Submitted())
		for j, d := range r.devices {
			name, s := d.Name(), stats[j]
			reg.Counter(obs.Name("replay_device_requests_total", "device", name)).Add(s.Requests)
			reg.Counter(obs.Name("replay_device_read_bytes_total", "device", name)).Add(s.BytesRead)
			reg.Counter(obs.Name("replay_device_written_bytes_total", "device", name)).Add(s.BytesWritten)
			reg.Counter(obs.Name("replay_device_seq_hits_total", "device", name)).Add(s.SeqHits)
			reg.Counter(obs.Name("replay_device_ra_evictions_total", "device", name)).Add(s.RAEvictions)
			reg.Counter(obs.Name("replay_device_ra_collapses_total", "device", name)).Add(s.RACollapses)
			reg.Counter(obs.Name("replay_device_failed_requests_total", "device", name)).Add(s.FailedRequests)
			reg.Counter(obs.Name("replay_device_reconstruct_reads_total", "device", name)).Add(s.ReconstructReads)
			reg.Gauge(obs.Name("replay_device_fault_delay_seconds", "device", name)).Set(s.FaultDelay)
			reg.Gauge(obs.Name("replay_device_busy_seconds", "device", name)).Set(s.BusyTime)
			reg.Gauge(obs.Name("replay_device_utilization", "device", name)).Set(utils[j])
			reg.Gauge(obs.Name("replay_device_mean_queue_depth", "device", name)).Set(s.MeanQueueDepth(elapsed))
			reg.Gauge(obs.Name("replay_device_max_queue_depth", "device", name)).Set(float64(s.MaxQueueDepth))
		}
	}
	if lg := r.opt.Logger; lg != nil {
		lg.Info("replay complete",
			"elapsed", elapsed, "requests", r.eng.Submitted(), "targets", len(r.devices))
	}
	return utils, stats, lats
}

func (r *runner) nextStreamID() uint64 {
	r.streamID++
	return r.streamID
}

// resolve maps an object name to its global index.
func (r *runner) resolve(name string) (int, error) {
	i, ok := r.objIdx[name]
	if !ok {
		return 0, fmt.Errorf("replay: workload references object %q not in the system", name)
	}
	return i, nil
}

// stream drives one benchdb.Stream through the LVM mapper in a closed loop,
// keeping up to depth requests in flight. Paced streams (depth > 1 with a
// think interval, i.e. asynchronously-flushed spill writes) issue at most
// one request per pacing tick, modelling production-rate-limited output.
type stream struct {
	r       *runner
	obj     int
	id      uint64
	pattern *storage.RunPattern
	think   float64
	depth   int
	onDone  func()

	outstanding int
	exhausted   bool
	paced       bool
	tokens      int

	// Callbacks bound once, so a running stream allocates nothing.
	done    func(failed bool) // st.complete
	refill  func()            // st.fill
	produce func()            // st.tick
}

// startStream validates and launches a stream; onDone fires at exhaustion.
func (r *runner) startStream(s benchdb.Stream, onDone func()) error {
	obj, err := r.resolve(s.Object)
	if err != nil {
		return err
	}
	size := s.ReqSize
	if size <= 0 {
		if s.Sequential {
			size = benchdb.ScanSize
		} else {
			size = benchdb.PageSize
		}
	}
	if stripe := r.sys.stripeSize(); stripe%size != 0 {
		return fmt.Errorf("replay: request size %d does not divide stripe size %d", size, stripe)
	}
	extent := r.sys.Objects[obj].Size / size * size
	if extent < size {
		extent = size
	}
	count := s.Bytes / size
	if count < 1 {
		count = 1
	}
	p := &storage.RunPattern{
		Rng:    rand.New(rand.NewSource(r.rng.Int63())),
		Base:   0,
		Extent: extent,
		Size:   size,
		Count:  count,
	}
	if s.Sequential {
		p.RunLen = count // one long run; wraps within the extent if needed
	} else {
		p.RunLen = 1
	}
	if s.Write {
		p.WriteFrac = 1
	}
	depth := s.Depth
	if depth <= 0 {
		depth = 1
		if s.Sequential && s.ThinkPerReq == 0 {
			depth = r.prefetch
		}
	}
	st := &stream{r: r, obj: obj, id: r.nextStreamID(), pattern: p,
		think: s.ThinkPerReq, depth: depth, onDone: onDone}
	st.done, st.refill, st.produce = st.complete, st.fill, st.tick
	if depth > 1 && st.think > 0 {
		st.paced = true
		st.tick()
	} else {
		st.fill()
	}
	return nil
}

// tick grants the paced stream one issue token per pacing interval.
func (st *stream) tick() {
	if st.exhausted {
		return
	}
	st.tokens++
	st.fill()
	if !st.exhausted {
		st.r.eng.After(st.think, st.produce)
	}
}

// complete retires one of the stream's requests and tops the window up,
// now or after the think time.
func (st *stream) complete(bool) {
	st.outstanding--
	if !st.paced && st.think > 0 {
		st.r.eng.After(st.think, st.refill)
	} else {
		st.fill()
	}
}

// fill tops the stream's in-flight window up to its depth (and, for paced
// streams, its token budget).
func (st *stream) fill() {
	for !st.exhausted && st.outstanding < st.depth {
		if st.paced {
			if st.tokens <= 0 {
				break
			}
			st.tokens--
		}
		off, size, write, ok := st.pattern.Next()
		if !ok {
			st.exhausted = true
			break
		}
		dev, phys, remain := st.r.m.locate(st.obj, off)
		if size > remain {
			size = remain // defensive: never cross a stripe boundary
		}
		st.outstanding++
		st.r.submit(dev, st.obj, st.id, phys, size, write, st.done)
	}
	if st.exhausted && st.outstanding == 0 && st.onDone != nil {
		done := st.onDone
		st.onDone = nil
		done()
	}
}

// runQuery executes a query's phases in order, then its CPU tail, then calls
// done.
func (r *runner) runQuery(q *benchdb.Query, done func()) error {
	var runPhase func(pi int)
	fail := func(err error) error { return err }
	var firstErr error

	runPhase = func(pi int) {
		if pi >= len(q.Phases) {
			if q.CPUSeconds > 0 {
				r.eng.After(q.CPUSeconds, done)
			} else {
				done()
			}
			return
		}
		remaining := len(q.Phases[pi].Streams)
		for _, s := range q.Phases[pi].Streams {
			err := r.startStream(s, func() {
				remaining--
				if remaining == 0 {
					runPhase(pi + 1)
				}
			})
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	runPhase(0)
	if firstErr != nil {
		return fail(firstErr)
	}
	return nil
}

// RunOLAP replays an OLAP workload: the query mix is randomly permuted
// (Sec. 6.1) and executed by Concurrency parallel sessions, each starting
// the next pending query as soon as its previous one finishes.
func RunOLAP(sys *System, l *layout.Layout, w *benchdb.OLAPWorkload, opt Options) (*OLAPResult, error) {
	opt = opt.withDefaults()
	r, tr, err := newRunner(sys, l, opt)
	if err != nil {
		return nil, err
	}
	if err := benchdb.ValidateQueries(w.Catalog, w.Queries); err != nil {
		return nil, err
	}

	queries := make([]*benchdb.Query, len(w.Queries))
	for i := range w.Queries {
		queries[i] = &w.Queries[i]
	}
	r.rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })

	next := 0
	active := 0
	var qerr error
	var sessionLoop func()
	sessionLoop = func() {
		if next >= len(queries) {
			return
		}
		q := queries[next]
		next++
		active++
		if err := r.runQuery(q, func() {
			active--
			sessionLoop()
		}); err != nil && qerr == nil {
			qerr = err
		}
	}
	conc := w.Concurrency
	if conc < 1 {
		conc = 1
	}
	for s := 0; s < conc && s < len(queries); s++ {
		sessionLoop()
	}
	if qerr != nil {
		return nil, qerr
	}
	r.startBackground()

	elapsed := r.eng.Run(opt.MaxSimTime)
	if next < len(queries) || active > 0 {
		return nil, fmt.Errorf("replay: workload did not finish within %g simulated seconds", opt.MaxSimTime)
	}

	res := &OLAPResult{
		Elapsed:  elapsed,
		Queries:  len(queries),
		Requests: r.eng.Submitted(),
		Trace:    tr,
	}
	res.Utilizations, res.DeviceStats, res.ObjectLatency = r.observe(elapsed)
	return res, nil
}
