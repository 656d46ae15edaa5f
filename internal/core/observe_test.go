package core

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"dblayout/internal/layouttest"
	"dblayout/internal/nlp"
)

// TestAdvisorPhaseSpans checks that a configured logger sees every advisor
// phase, that each solve span names the solver that ran, and that the
// per-phase timing breakdown is populated.
func TestAdvisorPhaseSpans(t *testing.T) {
	inst := layouttest.Instance(4)
	spans := func(opt Options) (string, *Recommendation) {
		var buf bytes.Buffer
		opt.Logger = slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
		opt.NLP.Seed = 1
		adv, err := New(inst, opt)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := adv.Recommend()
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), rec
	}
	out, rec := spans(Options{})
	for _, phase := range []string{"phase=seed", "phase=solve", "phase=regularize", "phase=validate"} {
		if !strings.Contains(out, phase) {
			t.Fatalf("log output missing %s:\n%s", phase, out)
		}
	}
	if n, want := strings.Count(out, "phase=solve"), strings.Count(out, "phase=solve solver=transfer "); n != want {
		t.Fatalf("%d solve spans, %d naming solver=transfer:\n%s", n, want, out)
	}
	if rec.InitialTime <= 0 || rec.SolveTime <= 0 {
		t.Fatalf("phase timings not recorded: initial %v solve %v", rec.InitialTime, rec.SolveTime)
	}
	if rec.PolishTime > rec.RegularizeTime {
		t.Fatalf("polish %v exceeds regularize total %v", rec.PolishTime, rec.RegularizeTime)
	}
	if len(rec.Trajectory) == 0 {
		t.Fatal("recommendation carries no solver trajectory")
	}

	// A portfolio advise from two starts runs two rounds per start with
	// each of its three solvers: twelve solve spans, four per solver.
	out, _ = spans(Options{Solver: SolverPortfolio, InitialLayouts: recommendStarts(t, inst)})
	if n := strings.Count(out, "phase=solve"); n != 12 {
		t.Errorf("portfolio logged %d solve spans, want 12:\n%s", n, out)
	}
	for _, name := range []string{"transfer", "anneal", "projected-gradient"} {
		if n := strings.Count(out, "phase=solve solver="+name+" "); n != 4 {
			t.Errorf("portfolio logged %d solve spans for %s, want 4", n, name)
		}
	}
}

// TestAdvisorTraceHook checks the nlp trace hook reaches the solver through
// core.Options and observes a monotone non-increasing best objective.
func TestAdvisorTraceHook(t *testing.T) {
	inst := layouttest.Instance(4)
	var events []nlp.TraceEvent
	adv, err := New(inst, Options{NLP: nlp.Options{Seed: 1,
		Trace: func(e nlp.TraceEvent) { events = append(events, e) }}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adv.Recommend(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("trace hook never fired")
	}
	// Each solver invocation (rounds x initial layouts) restarts the
	// best-so-far sequence; within an invocation (Iter resets to 1),
	// Best must be non-increasing.
	for i := 1; i < len(events); i++ {
		if events[i].Iter == 1 {
			continue
		}
		if events[i].Best > events[i-1].Best+1e-15 {
			t.Fatalf("best increased mid-run at event %d: %g -> %g",
				i, events[i-1].Best, events[i].Best)
		}
	}
}
