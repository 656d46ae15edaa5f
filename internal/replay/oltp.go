package replay

import (
	"fmt"
	"math/rand"

	"dblayout/internal/benchdb"
	"dblayout/internal/layout"
	"dblayout/internal/obs"
	"dblayout/internal/storage"
)

// OLTPResult reports an OLTP replay.
type OLTPResult struct {
	// TpmC is the New-Order completion rate per minute, measured after
	// the warm-up period — the paper's OLTP metric.
	TpmC float64
	// NewOrders counts New-Order transactions completed after warm-up.
	NewOrders int
	// Completed counts all completed transactions by type.
	Completed map[string]int
	// Elapsed is the measured interval (excluding warm-up) in seconds.
	Elapsed float64
	// Utilizations are the measured per-target busy fractions.
	Utilizations []float64
	// DeviceStats are the per-target simulator counters at the end of
	// the run (same order as the system's devices).
	DeviceStats []storage.DeviceStats
	// ObjectLatency holds one request-latency histogram snapshot per
	// database object, in seconds (whole run, including warm-up).
	ObjectLatency []obs.HistogramSnapshot
}

// oltpDriver runs terminals against a runner until stop() returns true.
type oltpDriver struct {
	r       *runner
	w       *benchdb.OLTPWorkload
	logIdx  int
	logOff  int64
	logSize int64
	rng     *rand.Rand

	warmup    float64
	stopped   func() bool
	completed map[string]int
	newOrders int
}

func newOLTPDriver(r *runner, w *benchdb.OLTPWorkload, warmup float64, stopped func() bool) (*oltpDriver, error) {
	logIdx, err := r.resolve(w.LogObject)
	if err != nil {
		return nil, err
	}
	var total float64
	for _, t := range w.Transactions {
		total += t.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("replay: OLTP mix has zero total weight")
	}
	return &oltpDriver{
		r:         r,
		w:         w,
		logIdx:    logIdx,
		logSize:   r.sys.Objects[logIdx].Size,
		rng:       rand.New(rand.NewSource(r.rng.Int63())),
		warmup:    warmup,
		stopped:   stopped,
		completed: map[string]int{},
	}, nil
}

// pick draws a transaction type from the mix.
func (d *oltpDriver) pick() *benchdb.Transaction {
	x := d.rng.Float64()
	var acc float64
	for i := range d.w.Transactions {
		acc += d.w.Transactions[i].Weight
		if x <= acc {
			return &d.w.Transactions[i]
		}
	}
	return &d.w.Transactions[len(d.w.Transactions)-1]
}

// pageOp is one dependent page access of a transaction.
type pageOp struct {
	obj   int
	write bool
	log   bool
	size  int64
}

// terminal is one closed-loop OLTP terminal with no think time. Its
// callbacks are bound once and its page list is reused, so a running
// terminal allocates nothing per page or transaction.
type terminal struct {
	d         *oltpDriver
	stream    uint64
	logStream uint64
	txn       *benchdb.Transaction
	ops       []pageOp // the transaction's dependent page accesses
	next      int      // index into ops of the next access to issue
	pageDone  func(failed bool)
	finishTxn func() // t.finish
}

// startTerminal starts one terminal on its first transaction.
func (d *oltpDriver) startTerminal() {
	t := &terminal{d: d, stream: d.r.nextStreamID(), logStream: d.r.nextStreamID()}
	t.pageDone = func(bool) { t.step() }
	t.finishTxn = t.finish
	t.run()
}

// run starts the terminal's next transaction unless the driver has stopped.
func (t *terminal) run() {
	if t.d.stopped() {
		return
	}
	t.txn = t.d.pick()
	t.ops = t.d.buildOps(t.ops[:0], t.txn)
	t.next = 0
	t.step()
}

// step issues the transaction's next page access, or finishes the
// transaction after its CPU time once every access has completed.
func (t *terminal) step() {
	d := t.d
	if t.next >= len(t.ops) {
		if t.txn.CPUSeconds > 0 {
			d.r.eng.After(t.txn.CPUSeconds, t.finishTxn)
		} else {
			t.finish()
		}
		return
	}
	op := t.ops[t.next]
	t.next++
	var off int64
	sid := t.stream
	if op.log {
		// The log is an append-only sequential stream shared by the
		// whole system.
		off = d.logOff % (d.logSize / op.size * op.size)
		d.logOff = off + op.size
		sid = t.logStream
	} else {
		extent := d.r.sys.Objects[op.obj].Size / op.size
		if extent < 1 {
			extent = 1
		}
		off = d.rng.Int63n(extent) * op.size
	}
	dev, phys, remain := d.r.m.locate(op.obj, off)
	size := op.size
	if size > remain {
		size = remain
	}
	d.r.submit(dev, op.obj, sid, phys, size, op.write, t.pageDone)
}

// finish counts the completed transaction and starts the next one.
func (t *terminal) finish() {
	d := t.d
	if d.r.eng.Now() >= d.warmup {
		d.completed[t.txn.Name]++
		if t.txn.Name == "NewOrder" {
			d.newOrders++
		}
	}
	t.run()
}

// buildOps appends a transaction's dependent page accesses to ops.
func (d *oltpDriver) buildOps(ops []pageOp, txn *benchdb.Transaction) []pageOp {
	add := func(accs []benchdb.TxnAccess, write bool) {
		for _, a := range accs {
			obj, err := d.r.resolve(a.Object)
			if err != nil {
				continue // validated at workload construction
			}
			for p := 0; p < a.Pages; p++ {
				ops = append(ops, pageOp{obj: obj, write: write, size: benchdb.PageSize})
			}
		}
	}
	add(txn.Reads, false)
	add(txn.Writes, true)
	if txn.LogBytes > 0 {
		ops = append(ops, pageOp{obj: d.logIdx, write: true, log: true, size: txn.LogBytes})
	}
	return ops
}

// result assembles the OLTP metrics for the measured window. Utilizations
// and instrumentation snapshots are filled in by the caller (they are shared
// with the OLAP result in the consolidated scenario).
func (d *oltpDriver) result(end float64) *OLTPResult {
	window := end - d.warmup
	res := &OLTPResult{
		NewOrders: d.newOrders,
		Completed: d.completed,
		Elapsed:   window,
	}
	if window > 0 {
		res.TpmC = float64(d.newOrders) / (window / 60)
	}
	return res
}

// RunOLTP replays the OLTP workload alone for the given duration (simulated
// seconds) and reports tpmC measured after warmup.
func RunOLTP(sys *System, l *layout.Layout, w *benchdb.OLTPWorkload, duration, warmup float64, opt Options) (*OLTPResult, error) {
	opt = opt.withDefaults()
	r, _, err := newRunner(sys, l, opt)
	if err != nil {
		return nil, err
	}
	d, err := newOLTPDriver(r, w, warmup, func() bool { return r.eng.Now() >= duration })
	if err != nil {
		return nil, err
	}
	for t := 0; t < w.Terminals; t++ {
		d.startTerminal()
	}
	end := r.eng.Run(duration)
	res := d.result(end)
	res.Utilizations, res.DeviceStats, res.ObjectLatency = r.observe(end)
	return res, nil
}

// RunConsolidated replays the paper's consolidation scenario (Sec. 6.3): an
// OLAP workload and an OLTP workload share the same storage system. The
// OLTP terminals run until the OLAP workload completes; tpmC is averaged
// over that interval minus the warm-up period.
func RunConsolidated(sys *System, l *layout.Layout, olap *benchdb.OLAPWorkload, oltp *benchdb.OLTPWorkload, warmup float64, opt Options) (*OLAPResult, *OLTPResult, error) {
	opt = opt.withDefaults()
	r, tr, err := newRunner(sys, l, opt)
	if err != nil {
		return nil, nil, err
	}
	if err := benchdb.ValidateQueries(olap.Catalog, olap.Queries); err != nil {
		return nil, nil, err
	}

	olapDone := false
	d, err := newOLTPDriver(r, oltp, warmup, func() bool { return olapDone })
	if err != nil {
		return nil, nil, err
	}

	// OLAP sessions.
	queries := make([]*benchdb.Query, len(olap.Queries))
	for i := range olap.Queries {
		queries[i] = &olap.Queries[i]
	}
	r.rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
	next, active := 0, 0
	var qerr error
	var olapEnd float64
	var sessionLoop func()
	sessionLoop = func() {
		if next >= len(queries) {
			if active == 0 && !olapDone {
				olapDone = true
				olapEnd = r.eng.Now()
			}
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
	conc := olap.Concurrency
	if conc < 1 {
		conc = 1
	}
	for s := 0; s < conc && s < len(queries); s++ {
		sessionLoop()
	}
	if qerr != nil {
		return nil, nil, qerr
	}

	for t := 0; t < oltp.Terminals; t++ {
		d.startTerminal()
	}

	r.eng.Run(opt.MaxSimTime)
	if !olapDone {
		return nil, nil, fmt.Errorf("replay: consolidated OLAP did not finish within %g simulated seconds", opt.MaxSimTime)
	}

	olapRes := &OLAPResult{
		Elapsed:  olapEnd,
		Queries:  len(queries),
		Requests: r.eng.Submitted(),
		Trace:    tr,
	}
	// The two workloads share one storage system, so the instrumentation is
	// observed (and published) exactly once and shared between the results.
	oltpRes := d.result(olapEnd)
	olapRes.Utilizations, olapRes.DeviceStats, olapRes.ObjectLatency = r.observe(olapEnd)
	oltpRes.Utilizations = olapRes.Utilizations
	oltpRes.DeviceStats = olapRes.DeviceStats
	oltpRes.ObjectLatency = olapRes.ObjectLatency
	return olapRes, oltpRes, nil
}
