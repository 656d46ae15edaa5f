package main

// Instrumentation for the traced pass. Everything here wraps the layers from
// the outside — spans around public calls, a cost-model decorator, a slog
// handler on the advisor's Logger option, the nlp Trace hook, a journal
// writer around the *os.File — so the program under test is unchanged. A nil
// *tracer is valid and records nothing: the untraced pass runs the same code
// with tr == nil.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dblayout/internal/layout"
	"dblayout/internal/nlp"
)

// Span op ids outside the timed sequence.
const (
	opSetup  = -1
	opWarmup = -2
)

// span is one timed call into a layer. Parent 0 marks a root span.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// phase is one "advisor phase" record from core's slog output.
type phase struct {
	name         string
	end          time.Time
	dur, polish  time.Duration
	iters, evals int64
	objective    float64
}

type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	counts map[int]map[string]int64
	phases []phase // advisor phases not yet attached to an op

	models []*countingModel // cost-model decorators, one per target
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: map[int]map[string]int64{}}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: t.since(start), End: t.since(end)})
	return id
}

// count adds delta to a per-op counter.
func (t *tracer) count(op int, key string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.counts[op]
	if m == nil {
		m = map[string]int64{}
		t.counts[op] = m
	}
	m[key] += delta
}

// lookupCount reads the running cost-model lookup total.
func (t *tracer) lookupCount() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, m := range t.models {
		n += m.n.Load()
	}
	return n
}

// lookupTiming sums the timed lookups' nanoseconds and count.
func (t *tracer) lookupTiming() (ns, samples int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range t.models {
		ns += m.ns.Load()
		samples += m.samples.Load()
	}
	return ns, samples
}

// countingModel decorates one target's cost model: it counts every lookup
// and times every 64th. Each target has its own decorator, so concurrent
// solver workers contend on a counter only when they price the same target.
type countingModel struct {
	inner   layout.CostModel
	n       atomic.Int64
	_       [56]byte // keeps n off the neighbouring decorators' cache lines
	ns      atomic.Int64
	samples atomic.Int64
}

func (m *countingModel) Cost(write bool, size, runCount, chi float64) float64 {
	if m.n.Add(1)&63 != 0 {
		return m.inner.Cost(write, size, runCount, chi)
	}
	start := time.Now()
	c := m.inner.Cost(write, size, runCount, chi)
	m.ns.Add(int64(time.Since(start)))
	m.samples.Add(1)
	return c
}

// model wraps m in a counting decorator when tracing.
func (t *tracer) model(m layout.CostModel) layout.CostModel {
	if t == nil {
		return m
	}
	c := &countingModel{inner: m}
	t.mu.Lock()
	t.models = append(t.models, c)
	t.mu.Unlock()
	return c
}

// phaseHandler is a slog.Handler capturing the advisor's phase records.
type phaseHandler struct{ t *tracer }

func (h phaseHandler) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelInfo }
func (h phaseHandler) WithAttrs([]slog.Attr) slog.Handler           { return h }
func (h phaseHandler) WithGroup(string) slog.Handler                { return h }

func (h phaseHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "advisor phase" {
		return nil
	}
	p := phase{end: r.Time}
	r.Attrs(func(a slog.Attr) bool {
		v := a.Value.Resolve()
		switch a.Key {
		case "phase":
			p.name = v.String()
		case "duration":
			p.dur = v.Duration()
		case "polish":
			p.polish = v.Duration()
		case "iters":
			p.iters = v.Int64()
		case "evals":
			p.evals = v.Int64()
		case "objective":
			p.objective = v.Float64()
		}
		return true
	})
	h.t.mu.Lock()
	h.t.phases = append(h.t.phases, p)
	h.t.mu.Unlock()
	return nil
}

// logger returns the advisor Logger feeding phaseHandler (nil when off).
func (t *tracer) logger() *slog.Logger {
	if t == nil {
		return nil
	}
	return slog.New(phaseHandler{t: t})
}

// takePhases drains the captured advisor phases.
func (t *tracer) takePhases() []phase {
	t.mu.Lock()
	defer t.mu.Unlock()
	ps := t.phases
	t.phases = nil
	return ps
}

// attachPhases turns the advisor phases captured since the last call into
// spans under parent: solve → nlp.solve, regularize → core.regularize with
// its polish tail as core.polish.
func (t *tracer) attachPhases(op, parent int) {
	if t == nil {
		return
	}
	for _, p := range t.takePhases() {
		t.attachPhase(op, parent, p)
	}
}

func (t *tracer) attachPhase(op, parent int, p phase) {
	switch p.name {
	case "solve":
		t.add(op, parent, "nlp.solve", p.end.Add(-p.dur), p.end)
	case "regularize":
		id := t.add(op, parent, "core.regularize", p.end.Add(-p.dur), p.end)
		if p.polish > 0 {
			t.add(op, id, "core.polish", p.end.Add(-p.polish), p.end)
		}
	}
}

// nlpHook returns the solver Trace hook counting op's iterations, accepted
// moves and evaluations (nil when off). Events arrive in order and never
// concurrently; Evals is cumulative within one solve, whose iterations
// count from 1.
func (t *tracer) nlpHook(op int) func(nlp.TraceEvent) {
	if t == nil {
		return nil
	}
	var last int
	return func(ev nlp.TraceEvent) {
		delta := ev.Evals - last
		if ev.Iter == 1 {
			delta = ev.Evals
		}
		last = ev.Evals
		t.count(op, "nlp.iters", 1)
		t.count(op, "nlp.evals", int64(delta))
		if ev.Accepted {
			t.count(op, "nlp.accepted", 1)
		}
	}
}

// countingJournal wraps a journal file: it counts appends and times Sync.
type countingJournal struct {
	f      *os.File
	t      *tracer
	op     int
	parent int
}

func (j *countingJournal) Write(p []byte) (int, error) {
	j.t.count(j.op, "wal.appends", 1)
	return j.f.Write(p)
}

func (j *countingJournal) Sync() error {
	id := j.t.begin(j.op, j.parent, "wal.fsync")
	err := j.f.Sync()
	j.t.end(id)
	j.t.count(j.op, "wal.fsyncs", 1)
	return err
}

// journal returns the writer the migration engine journals to.
func (t *tracer) journal(f *os.File, op, parent int) io.Writer {
	if t == nil {
		return f
	}
	return &countingJournal{f: f, t: t, op: op, parent: parent}
}

func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayerMetric names one per-layer metric as BENCHMARK.json lists it.
type perLayerMetric struct{ name, unit string }

var perLayerMetrics = []perLayerMetric{
	{"replay.trace_gen_ms", "ms"},
	{"storage.read_trace_ms", "ms"},
	{"storage.read_trace_mb_s", "MB/s"},
	{"rubicon.fit_ms", "ms"},
	{"rubicon.fit_krec_s", "krec/s"},
	{"costmodel.calibrate_ms", "ms"},
	{"costmodel.lookups", "count"},
	{"costmodel.lookup_ns", "ns"},
	{"layout.plan_ms", "ms"},
	{"nlp.solve_ms", "ms"},
	{"nlp.iters", "count"},
	{"nlp.evals", "count"},
	{"nlp.accept_ratio", "ratio"},
	{"core.advise_ms", "ms"},
	{"core.regularize_ms", "ms"},
	{"core.polish_ms", "ms"},
	{"core.repair_ms", "ms"},
	{"core.degraded", "count"},
	{"migrate.script_ms", "ms"},
	{"migrate.copy_ms", "ms"},
	{"migrate.recover_ms", "ms"},
	{"migrate.steps", "count"},
	{"migrate.journal_records", "count"},
	{"migrate.recopy_ratio", "ratio"},
	{"wal.fsyncs", "count"},
	{"wal.fsync_ms", "ms"},
	{"wal.records_per_fsync", "ratio"},
	{"server.advise_hit_ms", "ms"},
	{"server.advise_miss_ms", "ms"},
	{"server.read_ms", "ms"},
	{"server.write_ms", "ms"},
	{"server.trace_ms", "ms"},
	{"server.advise_hit_ratio", "ratio"},
	{"server.fit_hit_ratio", "ratio"},
	{"server.rejected", "count"},
	{"bench.trace_overhead_ms", "ms"},
}

// timedSpans are the span names whose per-op self time is reported as
// "<name>_ms".
var timedSpans = []string{
	"storage.read_trace", "rubicon.fit", "layout.plan",
	"nlp.solve", "core.advise", "core.regularize", "core.polish", "core.repair",
	"migrate.script", "migrate.copy", "migrate.recover", "wal.fsync",
}

// perLayer reduces the traced pass to per-layer metrics: per-op medians of
// each layer's self time (a span minus the time its children cover) and of
// per-op counts, plus a few ratios of run totals. It also prints where the
// op time went, layer by layer.
func perLayer(t *tracer, p *pass, spec workloadSpec, stdout io.Writer) map[string]float64 {
	ops := map[int]int{} // op id → index in p.recs
	for i, r := range p.recs {
		ops[r.id] = i
	}
	n := len(p.recs)
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string][]float64{} // span name → per-op self seconds
	layerSelf := map[string]float64{}
	var opTotal float64
	setup := map[string]float64{}
	for _, s := range t.spans {
		sec := float64(s.End-s.Start-child[s.ID]) / 1e9
		if s.Op == opSetup {
			setup[s.Name] += float64(s.End-s.Start) / 1e9
			continue
		}
		i, ok := ops[s.Op]
		if !ok {
			continue // warm-up
		}
		if s.Parent == 0 {
			opTotal += float64(s.End-s.Start) / 1e9
		}
		if self[s.Name] == nil {
			self[s.Name] = make([]float64, n)
		}
		self[s.Name][i] += sec
		layer, _, _ := strings.Cut(s.Name, ".")
		layerSelf[layer] += sec
	}
	perOp := func(key string) []float64 {
		xs := make([]float64, n)
		for i, r := range p.recs {
			xs[i] = float64(t.counts[r.id][key])
		}
		return xs
	}
	total := func(key string) float64 {
		var s float64
		for _, x := range perOp(key) {
			s += x
		}
		return s
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	out := map[string]float64{}
	for _, name := range timedSpans {
		if xs := self[name]; xs != nil {
			out[name+"_ms"] = ms(median(xs))
		}
	}
	out["replay.trace_gen_ms"] = ms(setup["replay.trace_gen"])
	out["costmodel.calibrate_ms"] = ms(setup["costmodel.calibrate"])
	if xs := self["storage.read_trace"]; xs != nil {
		out["storage.read_trace_mb_s"] = median(rates(perOp("storage.bytes"), xs, 1e6))
	}
	if xs := self["rubicon.fit"]; xs != nil {
		out["rubicon.fit_krec_s"] = median(rates(perOp("rubicon.records"), xs, 1e3))
	}
	out["costmodel.lookups"] = median(perOp("costmodel.lookups"))
	ns, samples := t.lookupTiming()
	out["costmodel.lookup_ns"] = ratio(float64(ns), float64(samples))
	out["nlp.iters"] = median(perOp("nlp.iters"))
	out["nlp.evals"] = median(perOp("nlp.evals"))
	// Moves kept per utilization evaluation: the transfer search keeps
	// every iteration's move, so accepted moves over iterations would
	// always read 1.
	out["nlp.accept_ratio"] = ratio(total("nlp.accepted"), total("nlp.evals"))
	out["core.degraded"] = float64(failed(p.recs))
	out["migrate.steps"] = median(perOp("migrate.steps"))
	out["migrate.journal_records"] = median(perOp("migrate.journal_records"))
	out["migrate.recopy_ratio"] = ratio(total("migrate.recopied_bytes"), total("migrate.crash_script_bytes"))
	out["wal.fsyncs"] = median(perOp("wal.fsyncs"))
	out["wal.records_per_fsync"] = ratio(total("wal.appends"), total("wal.fsyncs"))
	for _, class := range []string{"advise_hit", "advise_miss", "read", "write", "trace"} {
		var xs []float64
		for _, r := range p.recs {
			if r.class == class {
				xs = append(xs, r.lat.Seconds())
			}
		}
		if xs != nil {
			out["server."+class+"_ms"] = ms(median(xs))
		}
	}
	sc := t.counts[opSetup]
	out["server.advise_hit_ratio"] = ratio(float64(sc["server.advise_hits"]),
		float64(sc["server.advise_hits"]+sc["server.advise_misses"]))
	out["server.fit_hit_ratio"] = ratio(float64(sc["server.fit_hits"]),
		float64(sc["server.fit_hits"]+sc["server.fit_misses"]))
	out["server.rejected"] = float64(sc["server.rejected"])

	// Where the op time went.
	layers := make([]string, 0, len(layerSelf))
	for l := range layerSelf {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var intended float64
	parts := make([]string, 0, len(layers))
	for _, l := range layers {
		share := ratio(layerSelf[l], opTotal)
		parts = append(parts, fmt.Sprintf("%s %.1f%%", l, 100*share))
		for _, want := range spec.intended {
			if l == want {
				intended += share
			}
		}
	}
	fmt.Fprintf(stdout, "op time by layer (self time over %d ops, %.3f s): %s\n", n, opTotal, strings.Join(parts, ", "))
	fmt.Fprintf(stdout, "intended layers %s: %.1f%% of op time\n", strings.Join(spec.intended, "+"), 100*intended)
	return out
}

// rates divides per-op amounts by per-op seconds, scaled by unit.
func rates(amounts, seconds []float64, unit float64) []float64 {
	out := make([]float64, len(amounts))
	for i := range amounts {
		if seconds[i] > 0 {
			out[i] = amounts[i] / seconds[i] / unit
		}
	}
	return out
}
