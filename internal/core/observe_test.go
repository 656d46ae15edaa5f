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
// phase and that the per-phase timing breakdown is populated.
func TestAdvisorPhaseSpans(t *testing.T) {
	inst := layouttest.Instance(4)
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	adv, err := New(inst, Options{NLP: nlp.Options{Seed: 1}, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := adv.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, phase := range []string{"phase=seed", "phase=solve", "phase=regularize", "phase=validate"} {
		if !strings.Contains(out, phase) {
			t.Fatalf("log output missing %s:\n%s", phase, out)
		}
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
