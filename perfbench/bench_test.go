package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkFile
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// smoke runs a short version of a workload, set up once and replayed in
// two rounds (which must agree exactly), and returns its result.
func smoke(t *testing.T, workload string, seed int64, traced bool) *result {
	t.Helper()
	spec, err := specFor(workload)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]int{"trace-advise": 6, "service-mix": 400, "repair-migrate": 12}[workload]
	cfg := config{seed: seed, ops: ops, out: t.TempDir()}
	var stdout bytes.Buffer
	res, err := measure(spec, cfg, 1, 2, traced, &stdout)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, stdout.String())
	}
	if !res.Correct || res.Attempted < 1 || res.Failed < 0 || res.Failed > res.Attempted {
		t.Fatalf("%s: %+v", workload, res)
	}
	return res
}

// TestEveryWorkloadPrintsEveryMetric runs every workload briefly, untraced
// and traced, and checks that each prints every metric BENCHMARK.json names,
// with its unit.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	c := readBenchmarkFile(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := smoke(t, w.Name, 3, false)
			for _, m := range c.EndToEnd {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(c.EndToEnd) {
				t.Errorf("printed %d end-to-end metrics, BENCHMARK.json names %d", len(res.Metrics), len(c.EndToEnd))
			}
			res = smoke(t, w.Name, 3, true)
			for _, m := range c.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(c.PerLayer) {
				t.Errorf("printed %d per-layer metrics, BENCHMARK.json names %d", len(res.Metrics), len(c.PerLayer))
			}
		})
	}
}

// countMetrics are the metrics that must repeat exactly for one seed: the
// quality metrics and every per-layer count.
var countMetrics = map[string]bool{
	"objective": true, "moved_frac": true,
	"costmodel.lookups": true, "nlp.iters": true, "nlp.evals": true, "nlp.accept_ratio": true,
	"core.degraded": true, "migrate.steps": true, "migrate.journal_records": true,
	"migrate.recopy_ratio": true, "wal.fsyncs": true, "wal.records_per_fsync": true,
	"server.advise_hit_ratio": true, "server.fit_hit_ratio": true, "server.rejected": true,
}

// TestSameSeedRepeatsCounts runs every workload twice with one seed and
// checks that the failed-op count, the quality metrics and the per-layer
// counts agree exactly. (Each traced run also checks internally that its
// traced pass reproduced the untraced pass's per-op objectives bit for
// bit.)
func TestSameSeedRepeatsCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				a := smoke(t, w.name, 5, traced)
				b := smoke(t, w.name, 5, traced)
				if a.Failed != b.Failed {
					t.Errorf("failed ops: %d then %d", a.Failed, b.Failed)
				}
				for name, m := range a.Metrics {
					if countMetrics[name] && m.Value != b.Metrics[name].Value {
						t.Errorf("%s: %v then %v", name, m.Value, b.Metrics[name].Value)
					}
				}
			}
		})
	}
}

// TestStationarity checks, on a deterministic count, that trace-advise's
// ops stay alike over a run of the length BENCHMARK.json's run_seconds
// gives: the median solver evaluations of the first and second halves of
// the run agree within a factor of two. (One solve takes 3k to 96k
// evaluations, depending on its seed, so shorter runs cannot tell drift
// from chance.)
func TestStationarity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs trace-advise")
	}
	seconds := readBenchmarkFile(t).RunSeconds
	spec, err := specFor("trace-advise")
	if err != nil {
		t.Fatal(err)
	}
	p, err := execute(spec, config{seed: 7, ops: spec.opsFor(seconds), out: t.TempDir()}, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	half := len(p.recs) / 2
	first, second := medianWork(p.recs[:half]), medianWork(p.recs[half:])
	if first > 2*second || second > 2*first {
		t.Errorf("median evals %v in the first half, %v in the second", first, second)
	}
}

// TestRunPrintsResultLast runs the command on a short repair-migrate
// sequence and checks its last line, and that a bad flag prints no result.
func TestRunPrintsResultLast(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "repair-migrate", "--seed", "2", "--seconds", "0.1", "--trace", "0", "--out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct || res.Attempted != minOps {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	stdout.Reset()
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}
