// Package experiments reproduces every table and figure of the paper's
// evaluation (Sec. 6). Each experiment follows the paper's methodology
// end-to-end:
//
//  1. run the SQL workload under the SEE baseline layout on the simulated
//     storage system, capturing the block I/O trace;
//  2. fit Rome-style workload descriptions per object from the trace
//     (Rubicon's role);
//  3. calibrate black-box cost models for each storage target type;
//  4. run the layout advisor (initial layout -> NLP solve -> regularize);
//  5. replay the workload under the recommended layout and the baselines,
//     reporting the paper's metrics (elapsed seconds, tpmC, predicted
//     utilizations, advisor running time).
//
// Steps 1-3 belong to a scenario, which a Config builds once per system and
// workload: the studies run on one Config share their traces and
// calibrations.
package experiments

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"

	"dblayout"
	"dblayout/internal/benchdb"
	"dblayout/internal/core"
	"dblayout/internal/costmodel"
	"dblayout/internal/layout"
	"dblayout/internal/nlp"
	"dblayout/internal/obs"
	"dblayout/internal/replay"
	"dblayout/internal/rubicon"
	"dblayout/internal/storage"
)

// Config bundles the shared experiment settings. Construct it with
// NewConfig or NewQuickConfig. A Config keeps the cost models it calibrated
// and the scenarios it traced, so later studies on the same system reuse
// them; copies of a Config share both.
type Config struct {
	// Seed drives replays and the solver.
	Seed int64
	// Quick shrinks workloads (fewer queries) and calibrates on the coarse
	// grid, for use in tests; the paper-scale runs leave it false.
	Quick bool
	// Workers bounds solver restart parallelism for every advisor run in
	// the experiments (0 = auto, 1 = serial). Results are identical at any
	// worker count; only wall-clock time changes.
	Workers int
	// Logger, when non-nil, receives advisor phase spans and replay
	// summaries. Nil disables logging.
	Logger *slog.Logger
	// Trace, when non-nil, observes every solver iteration of every
	// advisor run in the experiments. Nil disables tracing.
	Trace func(nlp.TraceEvent)
	// Metrics, when non-nil, accumulates replay counters and solver
	// effort across the experiments. Nil disables collection.
	Metrics *obs.Registry
	// DriftEvents, when non-nil, receives the drift experiment's fired
	// detection events as JSON lines. Nil disables the stream.
	DriftEvents io.Writer

	memo *memo
}

// memo is what a Config keeps across studies: one calibration cache per
// grid, keyed by Quick, and the scenarios traced so far, keyed by
// everything their trace depends on.
type memo struct {
	mu        sync.Mutex
	caches    map[bool]*costmodel.Cache
	scenarios map[string]*scenario
}

// NewConfig returns the standard experiment configuration.
func NewConfig() *Config {
	return &Config{Seed: 1, memo: &memo{
		caches:    map[bool]*costmodel.Cache{false: costmodel.NewCache(), true: costmodel.NewCache()},
		scenarios: map[string]*scenario{},
	}}
}

// NewQuickConfig returns a reduced configuration for tests: coarse
// calibration and truncated workloads.
func NewQuickConfig() *Config {
	c := NewConfig()
	c.Quick = true
	return c
}

// calibration returns the calibration grid, which follows Quick, and the
// cache of the models calibrated on it.
func (c *Config) calibration() (*costmodel.Cache, costmodel.Grid) {
	if c.Quick {
		return c.memo.caches[true], costmodel.FastGrid()
	}
	return c.memo.caches[false], costmodel.DefaultGrid()
}

// trimOLAP shortens a workload in Quick mode.
func (c *Config) trimOLAP(w *benchdb.OLAPWorkload) *benchdb.OLAPWorkload {
	if !c.Quick || len(w.Queries) <= 12 {
		return w
	}
	out := *w
	out.Queries = w.Queries[:12]
	return &out
}

// fourDisks returns the devices of the homogeneous 1-1-1-1 system of the
// paper's Sec. 6.2.
func fourDisks() []replay.DeviceSpec {
	return []replay.DeviceSpec{
		replay.Disk15K("disk0"), replay.Disk15K("disk1"),
		replay.Disk15K("disk2"), replay.Disk15K("disk3"),
	}
}

// names extracts the object names of a system.
func names(sys *replay.System) []string {
	out := make([]string, len(sys.Objects))
	for i, o := range sys.Objects {
		out[i] = o.Name
	}
	return out
}

// scenario is one study system running its workload, traced under SEE and
// fitted: steps 1-3 of the package's method. Studies share it and must not
// modify it; one that injects faults replays on a copy of sys.
type scenario struct {
	sys  *replay.System
	olap *benchdb.OLAPWorkload
	// oltp, when non-nil, runs beside olap (the consolidation).
	oltp *benchdb.OLTPWorkload
	see  *layout.Layout
	// seeElapsed is the traced SEE run's OLAP elapsed time and seeTpmC its
	// New-Order rate when an OLTP side runs.
	seeElapsed, seeTpmC float64
	// inst is the advisor's instance: the fitted workloads on the
	// calibrated target models.
	inst *layout.Instance
}

// scenario returns olap (trimmed in Quick mode), with oltp beside it when
// non-nil, on a system of the given devices, traced under SEE and fitted.
// The Config traces each system once; later calls with the same workloads,
// devices, Seed and Quick return the same scenario.
func (c *Config) scenario(olap *benchdb.OLAPWorkload, oltp *benchdb.OLTPWorkload, devices ...replay.DeviceSpec) (*scenario, error) {
	olap = c.trimOLAP(olap)
	objects := olap.Catalog.Objects
	var key strings.Builder
	fmt.Fprintf(&key, "%q seed=%d quick=%t", olap.Name, c.Seed, c.Quick)
	if oltp != nil {
		objects = append(append([]layout.Object{}, objects...), oltp.Catalog.Objects...)
		fmt.Fprintf(&key, " + %q", oltp.Name)
	}
	for _, d := range devices {
		fmt.Fprintf(&key, " | %q %q %d", d.Name, d.ModelKey(), d.Capacity())
	}
	c.memo.mu.Lock()
	defer c.memo.mu.Unlock()
	if s, ok := c.memo.scenarios[key.String()]; ok {
		return s, nil
	}

	s := &scenario{
		sys:  &replay.System{Objects: objects, Devices: devices},
		olap: olap,
		oltp: oltp,
		see:  layout.SEE(len(objects), len(devices)),
	}
	// Pure-OLAP rates are fitted over each object's *active* windows: OLAP
	// phases are bursts, and burst-rate contention is what the
	// interference model needs to see. An OLTP side runs continuously, so
	// there is no burst structure to recover, and active-window rates
	// would overweight the OLAP phases against the steady transaction
	// load: a consolidation fits whole-trace rates.
	fitter := rubicon.NewFitter(names(s.sys), rubicon.Options{ActiveRates: oltp == nil})
	res, tx, err := s.run(c, s.sys, s.see, fitter)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s SEE trace: %w", olap.Name, err)
	}
	s.seeElapsed = res.Elapsed
	if tx != nil {
		s.seeTpmC = tx.TpmC
	}
	set, err := fitter.Fit()
	if err != nil {
		return nil, err
	}
	s.inst = &layout.Instance{Objects: objects, Targets: s.sys.Targets(c.calibration()), Workloads: set}
	if err := s.inst.Validate(); err != nil {
		return nil, err
	}
	c.memo.scenarios[key.String()] = s
	return s, nil
}

// run replays the scenario's workloads under l on sys, which is the
// scenario's own system or a copy of it with faults injected. tracer, when
// non-nil, observes every request. The OLTP result is nil when no OLTP side
// runs.
func (s *scenario) run(c *Config, sys *replay.System, l *layout.Layout, tracer storage.Tracer) (*replay.OLAPResult, *replay.OLTPResult, error) {
	opt := replay.Options{Seed: c.Seed, Tracer: tracer, Metrics: c.Metrics, Logger: c.Logger}
	if s.oltp == nil {
		res, err := replay.RunOLAP(sys, l, s.olap, opt)
		return res, nil, err
	}
	return replay.RunConsolidated(sys, l, s.olap, s.oltp, consolidatedWarmup, opt)
}

// elapsed replays the scenario's workloads under l on its own system and
// returns the OLAP side's elapsed time.
func (s *scenario) elapsed(c *Config, l *layout.Layout) (float64, error) {
	res, _, err := s.run(c, s.sys, l, nil)
	if err != nil {
		return 0, err
	}
	return res.Elapsed, nil
}

// options are the advisor options of every study's advise and repair.
func (c *Config) options() dblayout.Options {
	return dblayout.Options{Seed: c.Seed, Trace: c.Trace, Workers: c.Workers, Logger: c.Logger}
}

// problem is an instance as the advisor's public problem type.
func problem(inst *layout.Instance) dblayout.Problem {
	return dblayout.Problem{Objects: inst.Objects, Targets: inst.Targets, Workloads: inst.Workloads,
		StripeSize: inst.StripeSize, Constraints: inst.Constraints}
}

// advise runs the whole advisor on an instance: Fig. 4's multi-start loop
// from the Sec. 4.2 heuristic initial layout and SEE, keeping the better
// final layout.
func (c *Config) advise(inst *layout.Instance) (*core.Recommendation, error) {
	rec, err := dblayout.Recommend(problem(inst), c.options())
	if err == nil {
		c.countEffort(rec)
	}
	return rec, err
}

// countEffort adds an advise's whole solver effort to the Config's metrics.
// Every study that advises calls it once per advise.
func (c *Config) countEffort(rec *core.Recommendation) {
	if c.Metrics != nil {
		c.Metrics.Counter("solver_iters_total").Add(int64(rec.SolverIters))
		c.Metrics.Counter("solver_evals_total").Add(int64(rec.SolverEvals))
	}
}

// speedup formats a paper-style speedup factor.
func speedup(base, opt float64) string {
	if opt <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", base/opt)
}
