package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dblayout"
	"dblayout/internal/benchdb"
	"dblayout/internal/layout"
	"dblayout/internal/replay"
	"dblayout/internal/storage"
)

// trace-advise: the paper's pipeline with one client. Set-up calibrates the
// 15K disk on the full grid and replays the TPC-H + TPC-C consolidation
// (OLAP1-21 + OLTP, N=40, paper Fig. 15) under SEE, keeping the first
// traceWindow simulated seconds of each replay as JSON-lines bytes. Each op
// parses one trace, fits it, advises with default options and the op's own
// seed on four calibrated disks, plans the migration from the current
// layout, and commits.
//
// The ops belong to the data set: op k reads trace k mod traceCount and
// advises with the k-th seed drawn from datasetSeed, so every run of one
// length solves the same problems. How much a solve costs depends strongly
// on its seed; drawing the seeds per run would add that spread to every
// run's median. --seed orders the timed ops, which sets the layout each
// plan migrates from. Every round starts again from the SEE layout.
const (
	traceCount   = 4    // traces, replayed from seeds 1..traceCount
	traceQueries = 3    // OLAP1-21 queries replayed per trace
	traceWindow  = 60.0 // simulated seconds kept per trace (~2.6 MB)
	traceDisks   = 4
	traceWarmup  = 2 // untimed ops at the end of set-up
)

type traceAdvise struct {
	cfg     config
	tr      *tracer
	objects []layout.Object
	names   []string
	targets []*dblayout.Target
	traces  [][]byte

	opTrace []int   // trace each op reads, warm-up ops first
	opSeed  []int64 // advisor seed of each op
	see     *dblayout.Layout
	current *dblayout.Layout
	total   int64
	done    []taOutcome
}

type taOutcome struct {
	p     dblayout.Problem
	final *dblayout.Layout
	obj   float64
}

// windowTrace keeps the records submitted before a simulated deadline.
type windowTrace struct {
	storage.Trace
	until float64
}

func (w *windowTrace) Record(r storage.TraceRecord) {
	if r.Time < w.until {
		w.Trace.Record(r)
	}
}

func buildTraceAdvise(cfg config, tr *tracer) (workload, error) {
	w := &traceAdvise{cfg: cfg, tr: tr}
	id := tr.begin(opSetup, 0, "costmodel.calibrate")
	model := dblayout.CalibrateDisk()
	tr.end(id)

	olap := *benchdb.OLAP121()
	olap.Queries = olap.Queries[:traceQueries]
	oltp := benchdb.OLTP()
	w.objects = append(append([]layout.Object{}, olap.Catalog.Objects...), oltp.Catalog.Objects...)
	sys := &replay.System{Objects: w.objects}
	for j := 0; j < traceDisks; j++ {
		name := fmt.Sprintf("disk%d", j)
		sys.Devices = append(sys.Devices, replay.Disk15K(name))
		w.targets = append(w.targets, &dblayout.Target{
			Name: name, Capacity: storage.Disk15KConfig().CapacityBytes, Model: tr.model(model)})
	}
	for _, o := range w.objects {
		w.names = append(w.names, o.Name)
		w.total += o.Size
	}
	see := dblayout.SEE(len(w.objects), traceDisks)
	id = tr.begin(opSetup, 0, "replay.trace_gen")
	for k := 0; k < traceCount; k++ {
		rec := &windowTrace{until: traceWindow}
		if _, _, err := replay.RunConsolidated(sys, see, &olap, oltp, 0, replay.Options{Seed: int64(k + 1), Tracer: rec}); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if _, err := rec.WriteTo(&buf); err != nil {
			return nil, err
		}
		w.traces = append(w.traces, buf.Bytes())
	}
	tr.end(id)

	data := rand.New(rand.NewSource(datasetSeed))
	for k := 0; k < traceWarmup+cfg.ops; k++ {
		w.opTrace = append(w.opTrace, k%traceCount)
		w.opSeed = append(w.opSeed, data.Int63())
	}
	rand.New(rand.NewSource(cfg.seed)).Shuffle(cfg.ops, func(a, b int) {
		a, b = traceWarmup+a, traceWarmup+b
		w.opTrace[a], w.opTrace[b] = w.opTrace[b], w.opTrace[a]
		w.opSeed[a], w.opSeed[b] = w.opSeed[b], w.opSeed[a]
	})
	w.see, w.current = see, see
	for i := 0; i < traceWarmup; i++ {
		if _, err := w.op(i, opWarmup); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	w.done = nil
	w.current = see
	return w, nil
}

func (w *traceAdvise) reset() error {
	w.current = w.see
	return nil
}

func (w *traceAdvise) run() ([]opRecord, error) {
	recs := make([]opRecord, 0, w.cfg.ops)
	for k := 0; k < w.cfg.ops; k++ {
		r, err := w.op(traceWarmup+k, k)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", k, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// op runs sequence entry i, recording spans under span op id.
func (w *traceAdvise) op(i, id int) (opRecord, error) {
	tr := w.tr
	start := time.Now()
	root := tr.begin(id, 0, "bench.op")
	lookups := tr.lookupCount()
	raw := w.traces[w.opTrace[i]]

	s := tr.begin(id, root, "storage.read_trace")
	trace, err := dblayout.ReadTrace(bytes.NewReader(raw))
	tr.end(s)
	if err != nil {
		return opRecord{}, err
	}
	tr.count(id, "storage.bytes", int64(len(raw)))

	s = tr.begin(id, root, "rubicon.fit")
	set, err := dblayout.FitWorkloads(trace, w.names, dblayout.FitOptions{})
	tr.end(s)
	if err != nil {
		return opRecord{}, err
	}
	tr.count(id, "rubicon.records", int64(trace.Len()))

	p := dblayout.Problem{Objects: w.objects, Targets: w.targets, Workloads: set}
	s = tr.begin(id, root, "core.advise")
	rec, err := dblayout.RecommendContext(context.Background(), p, dblayout.Options{
		Seed: w.opSeed[i], Logger: tr.logger(), Trace: tr.nlpHook(id)})
	tr.end(s)
	tr.attachPhases(id, s)
	if err != nil {
		return opRecord{}, err
	}

	s = tr.begin(id, root, "layout.plan")
	plan, err := dblayout.MigrationPlan(p, w.current, rec.Final)
	tr.end(s)
	if err != nil {
		return opRecord{}, err
	}
	w.current = rec.Final
	tr.count(id, "costmodel.lookups", tr.lookupCount()-lookups)
	tr.end(root)
	w.done = append(w.done, taOutcome{p: p, final: rec.Final, obj: rec.FinalObjective})
	return opRecord{
		id: id, lat: time.Since(start), degraded: rec.Degraded,
		obj: rec.FinalObjective, moved: dblayout.PlanBytes(plan), bytes: w.total,
		work: rec.SolverEvals,
	}, nil
}

func (w *traceAdvise) verify() error {
	done := w.done
	w.done = nil
	for k, o := range done {
		if err := checkObjective(o.p, o.final, o.obj); err != nil {
			return fmt.Errorf("op %d: %w", k, err)
		}
	}
	return nil
}

func (w *traceAdvise) close() {}

// checkObjective checks that l is a valid layout for p whose maximum
// predicted utilization is the reported objective.
func checkObjective(p dblayout.Problem, l *dblayout.Layout, obj float64) error {
	utils, err := dblayout.Utilizations(p, l)
	if err != nil {
		return checkf("layout rejected: %v", err)
	}
	peak := math.Inf(-1)
	for _, u := range utils {
		peak = math.Max(peak, u)
	}
	if math.Abs(peak-obj) > 1e-9 {
		return checkf("max utilization %.12g, reported objective %.12g", peak, obj)
	}
	return nil
}
