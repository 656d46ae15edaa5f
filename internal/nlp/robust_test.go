package nlp

import (
	"context"
	"errors"
	"testing"
	"time"

	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
)

// endless returns options that keep a solver searching far longer than any
// test timeout, so cancellation and budget checks are what actually stop it.
func endless(seed int64) Options {
	return Options{Seed: seed, MaxIters: 1 << 30, Restarts: 1 << 20}
}

// slowModel delays every cost lookup by 20 us, standing in for the
// expensive cost models of production-sized instances. It keeps the
// projected-gradient solver (which otherwise converges in milliseconds on
// test instances) busy long enough for cancellation and budget checks to be
// what stops it.
type slowModel struct{ inner layout.CostModel }

func (s slowModel) Cost(write bool, size, runCount, chi float64) float64 {
	time.Sleep(20 * time.Microsecond)
	return s.inner.Cost(write, size, runCount, chi)
}

// slowEvaluator returns an evaluator for a copy of inst whose target models
// are all slowed by slowModel.
func slowEvaluator(inst *layout.Instance) *layout.Evaluator {
	slow := *inst
	slow.Targets = make([]*layout.Target, len(inst.Targets))
	for j, t := range inst.Targets {
		st := *t
		st.Model = slowModel{inner: t.Model}
		slow.Targets[j] = &st
	}
	return layout.NewEvaluator(&slow)
}

type solverCase struct {
	name  string
	slow  bool // slow the cost models so the solver cannot converge early
	solve func(ctx context.Context, ev *layout.Evaluator, inst *layout.Instance, init *layout.Layout, opt Options) Result
}

// solverCases enumerates the three search strategies behind one call shape.
// Transfer and anneal never converge under endless(); projected gradient
// does, so it runs against the slowed evaluator in the timing tests.
func solverCases() []solverCase {
	return []solverCase{
		{name: "transfer", solve: TransferSearch},
		{name: "projgrad", slow: true, solve: ProjectedGradient},
		{name: "anneal", solve: Anneal},
	}
}

func TestSolversPreCancelled(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	init, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range solverCases() {
		res := c.solve(ctx, ev, inst, init, endless(1))
		if !errors.Is(res.Stop, context.Canceled) {
			t.Errorf("%s: Stop = %v, want context.Canceled", c.name, res.Stop)
		}
		if res.Layout == nil {
			t.Errorf("%s: no layout returned", c.name)
			continue
		}
		if err := inst.ValidateLayout(res.Layout); err != nil {
			t.Errorf("%s: invalid layout: %v", c.name, err)
		}
	}
}

func TestSolversBudget(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	init, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 30 * time.Millisecond
	for _, c := range solverCases() {
		sev := ev
		if c.slow {
			sev = slowEvaluator(inst)
		}
		opt := endless(1)
		opt.Budget = budget
		start := time.Now()
		res := c.solve(context.Background(), sev, inst, init, opt)
		elapsed := time.Since(start)
		if !errors.Is(res.Stop, ErrBudgetExceeded) {
			t.Errorf("%s: Stop = %v, want ErrBudgetExceeded", c.name, res.Stop)
		}
		if err := inst.ValidateLayout(res.Layout); err != nil {
			t.Errorf("%s: invalid layout: %v", c.name, err)
		}
		// Generous wall-clock bound: the budget plus several check
		// intervals of slack for slow CI machines.
		if elapsed > budget+20*checkInterval {
			t.Errorf("%s: ran %v past a %v budget", c.name, elapsed, budget)
		}
	}
}

// TestSolversCancelPrompt cancels mid-solve and requires the solver to hand
// back its best-so-far layout within two check intervals — the
// responsiveness contract the advisor's callers rely on. Timing assertions
// are retried to tolerate scheduler hiccups on loaded machines.
func TestSolversCancelPrompt(t *testing.T) {
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
			done := make(chan Result, 1)
			go func() { done <- c.solve(ctx, sev, inst, init, endless(1)) }()
			time.Sleep(4 * checkInterval) // let the search get going
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
			ok = last < 2*checkInterval
		}
		if !ok {
			t.Errorf("%s: cancellation took %v, want < %v", c.name, last, 2*checkInterval)
		}
	}
}
