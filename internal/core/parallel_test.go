package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
	"dblayout/internal/nlp"
)

// sameLayout compares two layouts for bit-exact equality.
func sameLayout(a, b *layout.Layout) bool {
	if a.N != b.N || a.M != b.M {
		return false
	}
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.M; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// TestAdvisorDeterministicAcrossWorkers runs the full pipeline serially and
// with a wide worker pool and requires bit-identical recommendations: the
// advisor inherits the nlp layer's determinism contract end to end.
func TestAdvisorDeterministicAcrossWorkers(t *testing.T) {
	inst := layouttest.Instance(4)
	run := func(workers int) *Recommendation {
		adv, err := New(inst, Options{NLP: nlp.Options{Seed: 5, Restarts: 4, Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := adv.Recommend()
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	serial, wide := run(1), run(8)
	if !sameLayout(serial.Final, wide.Final) {
		t.Error("final layouts differ between workers=1 and workers=8")
	}
	if serial.FinalObjective != wide.FinalObjective {
		t.Errorf("final objective %v (serial) != %v (parallel)", serial.FinalObjective, wide.FinalObjective)
	}
	if serial.SolverIters != wide.SolverIters || serial.SolverEvals != wide.SolverEvals {
		t.Errorf("solver effort differs: serial %d/%d, parallel %d/%d",
			serial.SolverIters, serial.SolverEvals, wide.SolverIters, wide.SolverEvals)
	}
	if serial.SolverRestarts != 4 || wide.SolverRestarts != 4 {
		t.Errorf("SolverRestarts = %d (serial), %d (parallel), want 4", serial.SolverRestarts, wide.SolverRestarts)
	}
}

// TestPortfolioSolve runs the racing portfolio end to end: the result must
// be valid, at least as good as the best individual racer would make it, and
// the merged trace stream must satisfy the usual invariants (consecutive
// Iter, monotone Best) even though three solvers produced it concurrently.
func TestPortfolioSolve(t *testing.T) {
	inst := layouttest.Instance(4)
	var events []nlp.TraceEvent
	adv, err := New(inst, Options{
		Solver: SolverPortfolio,
		NLP: nlp.Options{Seed: 1, Restarts: 2,
			Trace: func(e nlp.TraceEvent) { events = append(events, e) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := adv.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.ValidateLayout(rec.Final); err != nil {
		t.Fatalf("portfolio layout invalid: %v", err)
	}
	if rec.SolverObjective > rec.InitialObjective*(1+1e-9) {
		t.Fatalf("portfolio worsened objective: %g -> %g", rec.InitialObjective, rec.SolverObjective)
	}
	if len(events) == 0 {
		t.Fatal("portfolio delivered no trace events")
	}
	// The advisor traces one stream per solve round; within each segment
	// Iter must be consecutive from 1 and Best monotone non-increasing.
	solvers := map[string]bool{}
	runMin := math.Inf(1)
	next := 1
	for i, ev := range events {
		solvers[ev.Solver] = true
		if ev.Iter == 1 && next != 1 {
			next = 1 // a new solve round begins
			runMin = math.Inf(1)
		}
		if ev.Iter != next {
			t.Fatalf("event %d has Iter %d, want %d", i, ev.Iter, next)
		}
		next++
		if ev.Objective < runMin {
			runMin = ev.Objective
		}
		if ev.Best > runMin+1e-15 {
			t.Fatalf("iter %d: best %g above running min %g", ev.Iter, ev.Best, runMin)
		}
		if ev.Iter > 1 && ev.Best > events[i-1].Best {
			t.Fatalf("best increased at iter %d", ev.Iter)
		}
	}
	// The unconstrained test instance races all three solvers.
	for _, want := range []string{"transfer", "anneal", "projected-gradient"} {
		if !solvers[want] {
			t.Errorf("no trace events from the %s racer (saw %v)", want, solvers)
		}
	}
}

// TestPortfolioDeterministic pins the race's merge rule: the fixed racer
// order breaks ties, so repeated runs and different worker widths agree.
func TestPortfolioDeterministic(t *testing.T) {
	inst := layouttest.Instance(4)
	run := func(workers int) *Recommendation {
		adv, err := New(inst, Options{
			Solver: SolverPortfolio,
			NLP:    nlp.Options{Seed: 9, Restarts: 3, Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := adv.Recommend()
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	a, b, c := run(1), run(1), run(8)
	if !sameLayout(a.Final, b.Final) {
		t.Error("portfolio not reproducible across identical runs")
	}
	if !sameLayout(a.Final, c.Final) {
		t.Error("portfolio layout depends on the worker count")
	}
	if a.SolverIters != c.SolverIters || a.SolverEvals != c.SolverEvals {
		t.Errorf("portfolio effort differs across worker counts: %d/%d vs %d/%d",
			a.SolverIters, a.SolverEvals, c.SolverIters, c.SolverEvals)
	}
}

// TestPortfolioNeverWorseThanTransfer pins the portfolio's pick rule: each
// racer is scored on the objective its layout reaches after the round's own
// regularize and polish. In a one-round portfolio the transfer racer runs
// the transfer-only solve bit for bit, so the portfolio cannot end worse than
// transfer alone. Picking on the solver objective instead ended this case at
// 1.051725 against transfer's 1.05.
func TestPortfolioNeverWorseThanTransfer(t *testing.T) {
	inst := layouttest.Replicated(2, 4)
	final := func(s Solver) float64 {
		adv, err := New(inst, Options{Solver: s, Rounds: 1, NLP: nlp.Options{Seed: 0, Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := adv.Recommend()
		if err != nil {
			t.Fatal(err)
		}
		return rec.FinalObjective
	}
	transfer, portfolio := final(SolverTransfer), final(SolverPortfolio)
	if portfolio > transfer {
		t.Fatalf("portfolio ended at %.6f, worse than transfer alone (%.6f)", portfolio, transfer)
	}
}

// TestPortfolioFinalIsWinnersPostProcessing pins the round's reuse of the
// winning racer's post-processing: a portfolio recommendation must be
// exactly what regularizing and (unless SkipPolish) polishing its solver
// layout without a deadline gives, at that layout's objective bits.
func TestPortfolioFinalIsWinnersPostProcessing(t *testing.T) {
	for _, c := range []struct {
		reps, m    int
		skipPolish bool
	}{{10, 4, false}, {10, 10, false}, {10, 10, true}} {
		inst := layouttest.Replicated(c.reps, c.m)
		adv, err := New(inst, Options{Solver: SolverPortfolio, NLP: nlp.Options{Seed: 1}, SkipPolish: c.skipPolish})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := adv.Recommend()
		if err != nil {
			t.Fatal(err)
		}
		ev := adv.Evaluator()
		want, err := Regularize(ev, inst, rec.Solver)
		if err != nil {
			t.Fatal(err)
		}
		if !c.skipPolish {
			want, _ = PolishRegular(ev, inst, want, time.Time{})
		}
		if !sameLayout(rec.Final, want) {
			t.Errorf("Replicated(%d,%d) SkipPolish %v: Final is not the post-processed solver layout",
				c.reps, c.m, c.skipPolish)
		}
		if got, obj := rec.FinalObjective, ev.MaxUtilization(want); math.Float64bits(got) != math.Float64bits(obj) {
			t.Errorf("Replicated(%d,%d) SkipPolish %v: FinalObjective %.17g, post-processed solver layout %.17g",
				c.reps, c.m, c.skipPolish, got, obj)
		}
	}
}

// TestPortfolioCancelMidSolve cancels a portfolio race mid-run; every racer
// must stop promptly and the advisor must still hand back a valid, degraded
// best-so-far recommendation. Under -race this exercises the concurrent
// racers plus the trace buffering for data races.
func TestPortfolioCancelMidSolve(t *testing.T) {
	inst := layouttest.Instance(4)
	var events []nlp.TraceEvent
	nopt := endlessNLP(1)
	nopt.Workers = 4
	nopt.Trace = func(e nlp.TraceEvent) { events = append(events, e) }
	adv, err := New(inst, Options{Solver: SolverPortfolio, NLP: nopt})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	type out struct {
		rec *Recommendation
		err error
	}
	done := make(chan out, 1)
	go func() {
		rec, err := adv.RecommendContext(ctx)
		done <- out{rec, err}
	}()
	time.Sleep(20 * time.Millisecond)
	cancelled := time.Now()
	cancel()
	o := <-done
	promptness := time.Since(cancelled)

	if !errors.Is(o.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", o.err)
	}
	if o.rec == nil {
		t.Fatal("no best-so-far recommendation alongside the context error")
	}
	if !o.rec.Degraded || !errors.Is(o.rec.Degradation, context.Canceled) {
		t.Fatalf("recommendation not degraded by cancellation: %+v", o.rec.Degradation)
	}
	if err := inst.ValidateLayout(o.rec.Final); err != nil {
		t.Fatalf("best-so-far layout invalid: %v", err)
	}
	if promptness > 100*time.Millisecond {
		t.Fatalf("portfolio cancellation took %v", promptness)
	}
}

// TestPortfolioSkipsProjGradWithConstraints verifies the portfolio drops the
// constraint-blind projected-gradient racer instead of erroring out when the
// instance carries administrative constraints.
func TestPortfolioSkipsProjGradWithConstraints(t *testing.T) {
	inst := layouttest.Instance(4)
	inst.Constraints = &layout.Constraints{Deny: map[int][]int{0: {1}}}
	var events []nlp.TraceEvent
	adv, err := New(inst, Options{
		Solver: SolverPortfolio,
		NLP: nlp.Options{Seed: 1, Restarts: 1,
			Trace: func(e nlp.TraceEvent) { events = append(events, e) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := adv.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.ValidateLayout(rec.Final); err != nil {
		t.Fatalf("portfolio layout invalid under constraints: %v", err)
	}
	for _, ev := range events {
		if ev.Solver == "projected-gradient" {
			t.Fatal("projected-gradient raced despite administrative constraints")
		}
	}
}
