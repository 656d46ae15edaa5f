// Command perfbench is the repository's benchmark. It drives the advisor's
// trace → fit → advise → migrate path through three seeded closed-loop
// workloads, calling each layer through its public entry point, checks every
// output, and prints its metrics as the last line of standard output, one
// JSON object.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload trace-advise --seed 1 --seconds 30 --trace 0
//
// Each workload has a fixed data set — traces, tenants, problems, and the
// ops themselves — so every run does identical work; --seed only orders the
// ops. --seconds sizes the op sequence through the workload's rate (ops per
// round = seconds × rate / rounds, at least minOps), so runs with the same
// flags do identical work and every count and quality metric repeats
// exactly. Set-up runs several times and its median is reported; warm-up
// ops and a forced GC precede the timed ops.
//
// The timed phase replays the op sequence in several identical rounds, each
// from the same starting state, and checks that every round reproduces the
// first round's results bit for bit. An op's latency is its median over the
// rounds. The host's speed drifts over seconds; the rounds spread each op's
// samples over the whole run, so a slow stretch shorter than half the run
// moves no op's latency.
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
// replays one round twice — untraced, then traced — checks that both passes
// produced bit-identical per-op results, and reports the per-layer metrics
// of the traced pass plus the tracing overhead. Spans are written as JSON
// lines under --out.
//
// An op that errors or any failed output check exits with status 1: the
// workloads are chosen so that no op errors. An op whose answer comes back
// Degraded (the advisor's fallback ladder produced it) completes but counts
// as failed: it is reported in "failed" and ranks as +Inf in the latency
// percentiles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// datasetSeed fixes each workload's data set — traces, tenants, problems
// and ops. The run's --seed orders the ops.
const datasetSeed = 1

// minOps keeps at least ten ops beyond every reported percentile,
// including the median.
const minOps = 20

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// gcPercent is the collector's GOGC for the whole run. The ops' live heaps
// are a few MB, and at the default of 100 the 4 MB minimum heap target makes
// the collector run every op or two, each time waking a second thread. On a
// shared 2-vCPU host those wake-ups wait on the host's load: in one paired
// trial with a competing busy loop, repair-migrate's op_p50_ms rose 18% at
// GOGC 100 and not at all at GOGC 400.
const gcPercent = 400

// config is what a workload needs to build its inputs and op sequence.
type config struct {
	seed int64
	ops  int    // timed ops
	out  string // directory for journals and span files
}

// opRecord is the outcome of one timed op.
type opRecord struct {
	id  int
	lat time.Duration
	// degraded marks an answer the advisor's fallback ladder produced: a
	// valid layout, but not the full pipeline's. The op counts as failed.
	degraded bool
	obj      float64 // predicted max utilization of the op's layout; NaN when none
	moved    int64   // bytes the op's migration plan moves
	bytes    int64   // object bytes that plan ranges over
	// work is a deterministic work count: solver evaluations, or journal
	// records for repair-migrate.
	work  int
	class string // request class (service-mix only)
}

// workload is one built instance of a workload: inputs generated, state
// fresh, warm-up done.
type workload interface {
	// run executes the timed op sequence once.
	run() ([]opRecord, error)
	// reset restores the state the first run started from, untimed.
	reset() error
	// verify checks the outputs of the round just finished and forgets
	// them, so that no round runs with a larger live heap than the last.
	verify() error
	close()
}

type workloadSpec struct {
	name string
	// rate sizes the op sequence: ops per round = seconds × rate / rounds.
	// It is about the workload's op rate on a 2-vCPU VM, so the timed
	// phase lasts about --seconds.
	rate float64
	// rounds is how many times the untraced pass replays the sequence.
	rounds int
	// intended lists the layers that should do most of the op time.
	intended []string
	build    func(cfg config, tr *tracer) (workload, error)
}

var workloads = []workloadSpec{
	{name: "trace-advise", rate: 4, rounds: 3,
		intended: []string{"storage", "rubicon", "nlp", "core"}, build: buildTraceAdvise},
	{name: "service-mix", rate: 15000, rounds: 3,
		intended: []string{"server"}, build: buildServiceMix},
	{name: "repair-migrate", rate: 30, rounds: 9,
		intended: []string{"migrate", "wal"}, build: buildRepair},
}

// opsFor is the length of a run's op sequence, which each round replays.
func (w workloadSpec) opsFor(seconds float64) int {
	return max(minOps, int(math.Round(seconds*w.rate/float64(w.rounds))))
}

func specFor(name string) (workloadSpec, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"` // ops answered Degraded; an op that errors ends the run
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the op sequence and its inputs")
	seconds := fs.Float64("seconds", 30, "sizes the op sequence: ops per round = seconds × the workload's rate / rounds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced replay")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for journals and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := specFor(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	debug.SetGCPercent(gcPercent)
	cfg := config{
		seed: *seed,
		ops:  spec.opsFor(*seconds),
		out:  *out,
	}
	res, err := measure(spec, cfg, setups, spec.rounds, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if res == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

// pass is one execution of the op sequence, in one or more rounds.
type pass struct {
	setups []float64 // seconds per set-up repetition
	recs   []opRecord
	rounds int
	wall   time.Duration // the timed phase, all rounds
}

// execute builds the workload `setups` times (keeping the last) and runs
// the op sequence `rounds` times, each after a reset and a forced GC, and
// verifies each round's outputs. Every round must reproduce the first
// round's per-op results exactly; each op's latency is its median over the
// rounds.
func execute(spec workloadSpec, cfg config, setups, rounds int, tr *tracer) (*pass, error) {
	p := &pass{rounds: rounds}
	var w workload
	for s := 0; s < setups; s++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		var err error
		if w, err = spec.build(cfg, tr); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		p.setups = append(p.setups, time.Since(start).Seconds())
	}
	defer w.close()
	var lats [][]time.Duration // per op, one latency per round
	for r := 0; r < rounds; r++ {
		if r > 0 {
			if err := w.reset(); err != nil {
				return nil, fmt.Errorf("%s reset: %w", spec.name, err)
			}
		}
		runtime.GC()
		start := time.Now()
		recs, err := w.run()
		p.wall += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", spec.name, r+1, err)
		}
		if r == 0 {
			p.recs = recs
			lats = make([][]time.Duration, len(recs))
		} else if err := sameResults(p.recs, recs); err != nil {
			return nil, fmt.Errorf("%s: round %d diverged from round 1: %w", spec.name, r+1, err)
		}
		for i, rec := range recs {
			lats[i] = append(lats[i], rec.lat)
		}
		if err := w.verify(); err != nil {
			return p, fmt.Errorf("%s round %d output check: %w", spec.name, r+1, err)
		}
	}
	for i := range p.recs {
		sort.Slice(lats[i], func(a, b int) bool { return lats[i][a] < lats[i][b] })
		p.recs[i].lat = lats[i][len(lats[i])/2]
	}
	return p, nil
}

func measure(spec workloadSpec, cfg config, setups, rounds int, traced bool, stdout io.Writer) (*result, error) {
	if traced {
		rounds = 1
	}
	fmt.Fprintf(stdout, "workload %s: seed %d, %d ops x %d rounds, GOMAXPROCS %d, NumCPU %d, GOGC %d, %s\n",
		spec.name, cfg.seed, cfg.ops, rounds, runtime.GOMAXPROCS(0), runtime.NumCPU(), gcPercent, runtime.Version())
	if !traced {
		p, err := execute(spec, cfg, setups, rounds, nil)
		if p == nil {
			return nil, err
		}
		res := endToEnd(p, peakRSSMB(), stdout)
		res.Correct = err == nil
		return res, err
	}

	plain, err := execute(spec, cfg, 1, 1, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tp, err := execute(spec, cfg, 1, 1, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	res := &result{Correct: true, Attempted: len(tp.recs), Failed: failed(tp.recs), Metrics: map[string]metric{}}
	if err := sameResults(plain.recs, tp.recs); err != nil {
		res.Correct = false
		return res, fmt.Errorf("traced pass diverged from the untraced pass: %w", err)
	}
	layers := perLayer(tr, tp, spec, stdout)
	overhead := quantile(latencies(tp.recs), 0.5) - quantile(latencies(plain.recs), 0.5)
	layers["bench.trace_overhead_ms"] = ms(overhead)
	for _, m := range perLayerMetrics {
		res.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", spec.name, cfg.seed))
	if err := tr.writeSpans(path); err != nil {
		return res, err
	}
	fmt.Fprintf(stdout, "spans: %s\n", path)
	return res, nil
}

// sameResults checks that two passes over one op sequence produced
// bit-identical per-op results and counts.
func sameResults(a, b []opRecord) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d ops vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		sameObj := math.Float64bits(x.obj) == math.Float64bits(y.obj)
		if !sameObj || x.moved != y.moved || x.bytes != y.bytes || x.work != y.work ||
			x.degraded != y.degraded || x.class != y.class {
			return fmt.Errorf("op %d: objective %v/%v, moved %d/%d, work %d/%d, class %q/%q",
				x.id, x.obj, y.obj, x.moved, y.moved, x.work, y.work, x.class, y.class)
		}
	}
	return nil
}

// latencies returns per-op latencies in seconds.
func latencies(recs []opRecord) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.lat.Seconds()
	}
	return out
}

// failed counts the ops answered Degraded.
func failed(recs []opRecord) int {
	n := 0
	for _, r := range recs {
		if r.degraded {
			n++
		}
	}
	return n
}

// rankedLatencies returns per-op latencies in seconds with failed
// (degraded) ops as +Inf, so that they miss every latency percentile.
func rankedLatencies(recs []opRecord) []float64 {
	out := latencies(recs)
	for i, r := range recs {
		if r.degraded {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// finite keeps a percentile that landed on a failed op printable: JSON has
// no infinity, so it reads as the largest float64.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(k, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func ms(seconds float64) float64 { return seconds * 1e3 }

// endToEnd derives the end-to-end metrics of an untraced pass.
func endToEnd(p *pass, rssMB float64, stdout io.Writer) *result {
	n := len(p.recs)
	res := &result{Attempted: n, Failed: failed(p.recs), Metrics: map[string]metric{}}
	lat := rankedLatencies(p.recs)
	sort.Float64s(lat)
	// The tail is the highest nearest-rank percentile with ten ops
	// beyond it.
	tailRank := n - 10
	if tailRank < 1 {
		tailRank = n // a test's short run: the slowest op
	}
	var objs []float64
	var moved, bytes int64
	for _, r := range p.recs {
		if !math.IsNaN(r.obj) {
			objs = append(objs, r.obj)
		}
		moved += r.moved
		bytes += r.bytes
	}
	put := func(name string, v float64, unit string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	put("setup_s", median(p.setups), "s")
	put("op_p50_ms", finite(ms(quantile(lat, 0.5))), "ms")
	put("op_tail_ms", finite(ms(lat[tailRank-1])), "ms")
	put("throughput_ops_s", float64(n*p.rounds)/p.wall.Seconds(), "1/s")
	// The median, not the mean: a degraded answer's fallback layout can
	// score several times worse than the rest.
	put("objective", median(objs), "util")
	put("moved_frac", float64(moved)/math.Max(float64(bytes), 1), "ratio")
	put("peak_rss_mb", rssMB, "MB")
	fmt.Fprintf(stdout, "op_tail_ms is p%.1f of n=%d ops, each op's latency its median over %d rounds; set-ups %s s\n",
		100*float64(tailRank)/float64(n), n, p.rounds, fmtList(p.setups))
	fmt.Fprintf(stdout, "failed (degraded) answers: %d of %d ops\n", res.Failed, n)
	fmt.Fprintf(stdout, "stationarity: median work per op %.0f (first half) vs %.0f (second half)\n",
		medianWork(p.recs[:n/2]), medianWork(p.recs[n/2:]))
	return res
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, ", ")
}

// medianWork is the median of the ops' deterministic work counts.
func medianWork(recs []opRecord) float64 {
	xs := make([]float64, len(recs))
	for i, r := range recs {
		xs[i] = float64(r.work)
	}
	return median(xs)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// checkf reports a failed output check.
func checkf(format string, args ...interface{}) error {
	return fmt.Errorf("check failed: "+format, args...)
}
