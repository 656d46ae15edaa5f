package nlp

import (
	"context"
	"math"
	"testing"

	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
)

// checkTrace asserts the trace invariants shared by all solvers: iterations
// are consecutive, Best is monotone non-increasing, and Best never exceeds
// the running minimum of the observed objectives.
func checkTrace(t *testing.T, events []TraceEvent) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("trace hook observed no events")
	}
	runMin := math.Inf(1)
	for i, ev := range events {
		if ev.Iter != i+1 {
			t.Fatalf("event %d has Iter %d, want %d", i, ev.Iter, i+1)
		}
		if ev.Objective < runMin {
			runMin = ev.Objective
		}
		if i > 0 && ev.Best > events[i-1].Best+1e-15 {
			t.Fatalf("best objective increased at iter %d: %g -> %g", ev.Iter, events[i-1].Best, ev.Best)
		}
		if ev.Best > runMin+1e-15 {
			t.Fatalf("iter %d: best %g above running min objective %g", ev.Iter, ev.Best, runMin)
		}
		if ev.Evals <= 0 {
			t.Fatalf("iter %d: no evals reported", ev.Iter)
		}
	}
}

func TestTransferSearchTrace(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	init, _ := layout.InitialLayout(inst)

	var events []TraceEvent
	res := TransferSearch(context.Background(), ev, inst, init, Options{Seed: 1, Trace: func(e TraceEvent) {
		if e.Solver != "transfer" {
			t.Fatalf("solver = %q", e.Solver)
		}
		events = append(events, e)
	}})
	checkTrace(t, events)
	if len(events) != res.Iters {
		t.Fatalf("observed %d events for %d iterations", len(events), res.Iters)
	}
	last := events[len(events)-1]
	if math.Abs(last.Best-res.Objective) > 1e-12 {
		t.Fatalf("final traced best %g != result objective %g", last.Best, res.Objective)
	}
}

func TestAnnealTrace(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	init, _ := layout.InitialLayout(inst)

	var events []TraceEvent
	res := Anneal(context.Background(), ev, inst, init, Options{Seed: 3, MaxIters: 3000,
		Trace: func(e TraceEvent) { events = append(events, e) }})
	checkTrace(t, events)
	// Annealing must report its temperature, and the schedule must cool.
	if events[0].Temp <= 0 {
		t.Fatalf("first event temperature %g", events[0].Temp)
	}
	last := events[len(events)-1]
	if last.Temp >= events[0].Temp {
		t.Fatalf("temperature did not cool: %g -> %g", events[0].Temp, last.Temp)
	}
	if math.Abs(last.Best-res.Objective) > 1e-12 {
		t.Fatalf("final traced best %g != result objective %g", last.Best, res.Objective)
	}
}

func TestProjectedGradientTrace(t *testing.T) {
	inst := layouttest.Instance(3)
	ev := layout.NewEvaluator(inst)
	init, _ := layout.InitialLayout(inst)

	var events []TraceEvent
	ProjectedGradient(context.Background(), ev, inst, init, Options{MaxIters: 40,
		Trace: func(e TraceEvent) { events = append(events, e) }})
	checkTrace(t, events)
}

// TestAnnealSeedZeroDeterministic pins the documented contract that Seed 0
// is a deterministic default, not a time- or global-rng-derived seed.
func TestAnnealSeedZeroDeterministic(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	init, _ := layout.InitialLayout(inst)
	a := Anneal(context.Background(), ev, inst, init, Options{MaxIters: 500})
	b := Anneal(context.Background(), ev, inst, init, Options{MaxIters: 500})
	if a.Objective != b.Objective || a.Iters != b.Iters || a.Evals != b.Evals {
		t.Fatalf("seed-0 runs diverge: %+v vs %+v", a, b)
	}
}
