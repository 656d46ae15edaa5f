package dblayout_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"

	"dblayout"
	"dblayout/internal/obs"
)

// TestRecommendTraceJSONL streams the solver trace through the JSONL writer
// (exactly what the advisor command's -trace-out flag does) and checks every
// line parses back into a TraceEvent, one line per iteration the
// recommendation counts.
func TestRecommendTraceJSONL(t *testing.T) {
	p := testProblem()
	var buf bytes.Buffer
	jl := obs.NewJSONL(&buf)
	rec, err := dblayout.Recommend(p, dblayout.Options{
		Seed:  1,
		Trace: func(ev dblayout.TraceEvent) { jl.Write(ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Err(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	lines := 0
	var last dblayout.TraceEvent
	for sc.Scan() {
		var ev dblayout.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", lines+1, err, sc.Text())
		}
		if ev.Solver == "" {
			t.Fatalf("line %d missing solver name: %s", lines+1, sc.Text())
		}
		lines++
		last = ev
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("no trace lines written")
	}
	if last.Best <= 0 {
		t.Fatalf("final trace best %g not positive", last.Best)
	}
	if lines != rec.SolverIters {
		t.Fatalf("%d trace lines for %d solver iterations", lines, rec.SolverIters)
	}
}

// TestRecommendLogger checks the public Options.Logger surfaces the advisor
// phase spans.
func TestRecommendLogger(t *testing.T) {
	p := testProblem()
	var buf bytes.Buffer
	_, err := dblayout.Recommend(p, dblayout.Options{
		Seed:   1,
		Logger: slog.New(slog.NewTextHandler(&buf, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, phase := range []string{"phase=seed", "phase=solve", "phase=regularize", "phase=validate"} {
		if !strings.Contains(out, phase) {
			t.Errorf("log output missing %s:\n%s", phase, out)
		}
	}
}
