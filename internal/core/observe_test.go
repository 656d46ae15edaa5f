package core

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"

	"dblayout/internal/layouttest"
	"dblayout/internal/nlp"
)

// TestAdvisorPhaseSpans checks that a configured logger sees every advisor
// phase, that each solve span names the solver that ran, and that the
// advise's solve time is recorded.
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
	if rec.SolveTime <= 0 {
		t.Fatalf("solve time not recorded: %v", rec.SolveTime)
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

// spanTotals adds up the solve and regularize spans an advise logs.
type spanTotals struct {
	solves                    int
	iters, evals              int64
	solveTime, regularizeTime time.Duration
}

// totalsHandler is a slog handler feeding spanTotals.
type totalsHandler struct{ t *spanTotals }

func (h totalsHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h totalsHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h totalsHandler) WithGroup(string) slog.Handler            { return h }

func (h totalsHandler) Handle(_ context.Context, r slog.Record) error {
	var phase string
	var iters, evals int64
	var d time.Duration
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "phase":
			phase = a.Value.String()
		case "iters":
			iters = a.Value.Int64()
		case "evals":
			evals = a.Value.Int64()
		case "duration":
			d = a.Value.Duration()
		}
		return true
	})
	switch phase {
	case "solve":
		h.t.solves++
		h.t.iters += iters
		h.t.evals += evals
		h.t.solveTime += d
	case "regularize":
		h.t.regularizeTime += d
	}
	return nil
}

// TestRecommendationCountsWholeAdvise checks that a Recommendation's effort
// fields add up every solve and regularize of the advise, not only the
// round that produced its layout: a transfer advise from two starts (two
// rounds each) and a portfolio advise (three solvers over the same four
// rounds) report the sums of their logged spans.
func TestRecommendationCountsWholeAdvise(t *testing.T) {
	inst := layouttest.Replicated(10, 4)
	starts := recommendStarts(t, inst)
	for _, c := range []struct {
		name   string
		opt    Options
		solves int
	}{
		{"transfer", Options{InitialLayouts: starts}, 4},
		{"portfolio", Options{Solver: SolverPortfolio, InitialLayouts: starts}, 12},
	} {
		t.Run(c.name, func(t *testing.T) {
			var sum spanTotals
			c.opt.NLP.Seed = 1
			c.opt.Logger = slog.New(totalsHandler{&sum})
			adv, err := New(inst, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := adv.Recommend()
			if err != nil {
				t.Fatal(err)
			}
			if sum.solves != c.solves {
				t.Fatalf("%d solve spans, want %d", sum.solves, c.solves)
			}
			if int64(rec.SolverIters) != sum.iters || int64(rec.SolverEvals) != sum.evals {
				t.Errorf("SolverIters %d, SolverEvals %d; the solve spans add up to %d and %d",
					rec.SolverIters, rec.SolverEvals, sum.iters, sum.evals)
			}
			if rec.SolveTime != sum.solveTime || rec.RegularizeTime != sum.regularizeTime {
				t.Errorf("SolveTime %v, RegularizeTime %v; the spans add up to %v and %v",
					rec.SolveTime, rec.RegularizeTime, sum.solveTime, sum.regularizeTime)
			}
		})
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
