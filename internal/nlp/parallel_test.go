package nlp

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
)

// sameLayout compares two layouts for bit-exact equality.
func sameLayout(a, b *layout.Layout) bool {
	if a.N != b.N || a.M != b.M {
		return false
	}
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.M; j++ {
			if a.At(i, j) != b.At(i, j) {
				return false
			}
		}
	}
	return true
}

// TestSolversDeterministicAcrossWorkers is the determinism contract of
// Options.Workers: the chosen layout, the effort counters, and the full
// delivered trace stream are bit-identical whether the restarts run serially
// or fanned across eight goroutines.
func TestSolversDeterministicAcrossWorkers(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	init, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range solverCases() {
		run := func(workers int) (Result, []TraceEvent) {
			var events []TraceEvent
			opt := Options{Seed: 7, Restarts: 6, Workers: workers,
				Trace: func(e TraceEvent) { events = append(events, e) }}
			return c.solve(context.Background(), ev, inst, init, opt), events
		}
		serial, serialEvents := run(1)
		wide, wideEvents := run(8)

		if !sameLayout(serial.Layout, wide.Layout) {
			t.Errorf("%s: layouts differ between workers=1 and workers=8", c.name)
		}
		if serial.Objective != wide.Objective {
			t.Errorf("%s: objective %v (serial) != %v (parallel)", c.name, serial.Objective, wide.Objective)
		}
		if serial.Iters != wide.Iters || serial.Evals != wide.Evals || serial.Restarts != wide.Restarts {
			t.Errorf("%s: effort differs: serial iters=%d evals=%d restarts=%d, parallel iters=%d evals=%d restarts=%d",
				c.name, serial.Iters, serial.Evals, serial.Restarts, wide.Iters, wide.Evals, wide.Restarts)
		}
		if !reflect.DeepEqual(serialEvents, wideEvents) {
			t.Errorf("%s: trace streams differ between worker counts (%d vs %d events)",
				c.name, len(serialEvents), len(wideEvents))
		}
		checkTrace(t, wideEvents)
	}
}

// TestSolversPerformRestarts is the regression for the silently-ignored
// Restarts option: with Restarts=5, every solver must actually perform five
// restart rounds, visible both in Result.Restarts and as distinct restart
// tags in the trace stream.
func TestSolversPerformRestarts(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	init, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range solverCases() {
		rounds := map[int]bool{}
		opt := Options{Seed: 3, Restarts: 5,
			Trace: func(e TraceEvent) { rounds[e.Restart] = true }}
		res := c.solve(context.Background(), ev, inst, init, opt)
		if res.Restarts != 5 {
			t.Errorf("%s: Result.Restarts = %d, want 5", c.name, res.Restarts)
		}
		for r := range rounds {
			if r < 0 || r > 5 {
				t.Errorf("%s: trace event tagged restart %d, outside [0, 5]", c.name, r)
			}
		}
		if len(rounds) < 2 {
			t.Errorf("%s: trace shows no restart rounds beyond the first descent: %v", c.name, rounds)
		}
		// The descent solvers may converge a perturbed restart in zero
		// iterations (no events for that round); annealing chains always
		// run their full schedule, so every round must appear.
		if c.name == "anneal" {
			for r := 1; r <= 5; r++ {
				if !rounds[r] {
					t.Errorf("anneal: no trace events tagged restart %d; rounds seen: %v", r, rounds)
				}
			}
		}
	}
}

// TestParallelCancelPrompt cancels a wide parallel solve mid-run and
// requires every worker to stop promptly, hand back a valid best-so-far
// layout, and classify the stop as a cancellation. Run under -race this also
// exercises the worker pool's merge path for data races.
func TestParallelCancelPrompt(t *testing.T) {
	inst := layouttest.Replicated(2, 8)
	ev := layout.NewEvaluator(inst)
	init, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range solverCases() {
		sev := ev
		if c.slow {
			sev = slowEvaluator(inst)
		}
		ok := false
		var last time.Duration
		for attempt := 0; attempt < 3 && !ok; attempt++ {
			ctx, cancel := context.WithCancel(context.Background())
			opt := endless(1)
			opt.Workers = 8
			done := make(chan Result, 1)
			go func() { done <- c.solve(ctx, sev, inst, init, opt) }()
			time.Sleep(4 * checkInterval) // let the workers get going
			cancelled := time.Now()
			cancel()
			res := <-done
			last = time.Since(cancelled)
			if !errors.Is(res.Stop, context.Canceled) {
				t.Fatalf("%s: Stop = %v, want context.Canceled", c.name, res.Stop)
			}
			if err := inst.ValidateLayout(res.Layout); err != nil {
				t.Fatalf("%s: best-so-far layout invalid: %v", c.name, err)
			}
			ok = last < 4*checkInterval
		}
		if !ok {
			t.Errorf("%s: parallel cancellation took %v, want < %v", c.name, last, 4*checkInterval)
		}
	}
}
