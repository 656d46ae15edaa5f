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
	if res.Elapsed <= 0 {
		t.Fatal("Elapsed not recorded")
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

func TestTrajectoryBounded(t *testing.T) {
	var tr trajectory
	for i := 0; i <= 100000; i++ {
		tr.add(TrajPoint{Iter: i, Objective: 1, Best: 1})
	}
	if len(tr.points) == 0 || len(tr.points) >= maxTrajPoints {
		t.Fatalf("trajectory has %d points, want (0, %d)", len(tr.points), maxTrajPoints)
	}
	// Samples must stay ordered and span the run.
	for i := 1; i < len(tr.points); i++ {
		if tr.points[i].Iter <= tr.points[i-1].Iter {
			t.Fatalf("trajectory out of order at %d", i)
		}
	}
	if first := tr.points[0].Iter; first != 0 {
		t.Fatalf("first sample at iter %d, want 0", first)
	}
	if last := tr.points[len(tr.points)-1].Iter; last < 50000 {
		t.Fatalf("last sample at iter %d: reservoir lost the tail", last)
	}
}

func TestResultTrajectoryRecorded(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	init, _ := layout.InitialLayout(inst)
	res := TransferSearch(context.Background(), ev, inst, init, Options{Seed: 1})
	if len(res.Trajectory) < 2 {
		t.Fatalf("trajectory has %d points", len(res.Trajectory))
	}
	if res.Trajectory[0].Iter != 0 {
		t.Fatal("trajectory missing the initial objective sample")
	}
	for i := 1; i < len(res.Trajectory); i++ {
		if res.Trajectory[i].Best > res.Trajectory[i-1].Best+1e-15 {
			t.Fatal("trajectory best not monotone")
		}
	}
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
