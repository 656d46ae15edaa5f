package core

import (
	"context"
	"errors"
	"fmt"
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

// TestPortfolioSolve runs the portfolio end to end: the result must be
// valid, its winning round must not worsen its start, and the trace hook
// must see every solver's solves, each a segment with the usual invariants
// (consecutive Iter from 1, monotone Best).
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
	// The advisor traces one stream per solve; within each segment Iter
	// must be consecutive from 1 and Best monotone non-increasing.
	solvers := map[string]bool{}
	runMin := math.Inf(1)
	next := 1
	for i, ev := range events {
		solvers[ev.Solver] = true
		if ev.Iter == 1 && next != 1 {
			next = 1 // a new solve begins
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
	// The unconstrained test instance runs all three solvers.
	for _, want := range []string{"transfer", "anneal", "projected-gradient"} {
		if !solvers[want] {
			t.Errorf("no trace events from the %s solver (saw %v)", want, solvers)
		}
	}
}

// TestPortfolioDeterministic pins the portfolio's pick rule: the fixed solver
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

// recommendStarts is dblayout.Recommend's multi-start: the heuristic initial
// layout, then SEE when it satisfies the instance's constraints.
func recommendStarts(t *testing.T, inst *layout.Instance) []*layout.Layout {
	t.Helper()
	heuristic, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	starts := []*layout.Layout{heuristic}
	if see := layout.SEE(inst.N(), inst.M()); inst.ValidateLayout(see) == nil {
		starts = append(starts, see)
	}
	return starts
}

// TestPortfolioNeverWorseThanTransfer checks the portfolio's defining
// property. It runs the transfer pipeline first, bit for bit as a
// transfer-only advise, and keeps a later solver's final layout only when
// that is strictly lower. So its final objective is at most transfer's and
// anneal's, and when it equals transfer's the final layout is transfer's.
// The default set holds the ten runs of EXPERIMENTS.md "Solver modes", with
// dblayout.Recommend's starts; outside -short the full set adds five
// instances, six seeds and four option sets.
func TestPortfolioNeverWorseThanTransfer(t *testing.T) {
	type run struct {
		name string
		inst *layout.Instance
		seed int64
		opt  Options
	}
	var runs []run
	for _, c := range []struct {
		name  string
		inst  *layout.Instance
		seeds []int64
	}{
		{"Instance(4)", layouttest.Instance(4), []int64{0, 1}},
		{"Replicated(2,4)", layouttest.Replicated(2, 4), []int64{0, 1}},
		{"Replicated(5,4)", layouttest.Replicated(5, 4), []int64{2, 0}},
		{"Replicated(10,4)", layouttest.Replicated(10, 4), []int64{0, 1}},
		{"Replicated(10,10)", layouttest.Replicated(10, 10), []int64{0, 1}},
	} {
		for _, s := range c.seeds {
			runs = append(runs, run{c.name, c.inst, s, Options{}})
		}
	}
	if !testing.Short() {
		for _, c := range []struct {
			name string
			inst *layout.Instance
		}{
			{"Instance(4)", layouttest.Instance(4)},
			{"Replicated(2,4)", layouttest.Replicated(2, 4)},
			{"Replicated(5,4)", layouttest.Replicated(5, 4)},
			{"Replicated(10,4)", layouttest.Replicated(10, 4)},
			{"constrained Replicated(6,6)", constrainedReplicated()},
		} {
			for s := int64(0); s <= 5; s++ {
				for _, o := range []Options{{}, {Rounds: 1}, {SkipPolish: true}, {SkipRegularization: true}} {
					runs = append(runs, run{c.name, c.inst, s, o})
				}
			}
		}
	}
	for _, c := range runs {
		starts := recommendStarts(t, c.inst)
		final := func(s Solver) *Recommendation {
			opt := c.opt
			opt.Solver = s
			opt.NLP.Seed = c.seed
			opt.InitialLayouts = starts
			adv, err := New(c.inst, opt)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := adv.Recommend()
			if err != nil {
				t.Fatal(err)
			}
			return rec
		}
		transfer, anneal, portfolio := final(SolverTransfer), final(SolverAnneal), final(SolverPortfolio)
		name := fmt.Sprintf("%s seed %d, Rounds %d, SkipPolish %v, SkipRegularization %v",
			c.name, c.seed, c.opt.Rounds, c.opt.SkipPolish, c.opt.SkipRegularization)
		if p := portfolio.FinalObjective; p > transfer.FinalObjective || p > anneal.FinalObjective {
			t.Errorf("%s: portfolio ended at %.6f, worse than transfer (%.6f) or anneal (%.6f)",
				name, p, transfer.FinalObjective, anneal.FinalObjective)
		}
		if portfolio.FinalObjective == transfer.FinalObjective && !sameLayout(portfolio.Final, transfer.Final) {
			t.Errorf("%s: portfolio tied transfer at %.6f with a different layout", name, transfer.FinalObjective)
		}
	}
}

// TestFinalIsPostProcessedSolverLayout pins what every solver mode reports:
// the recommendation's Final is exactly what regularizing and (unless
// SkipPolish) polishing its Solver layout without a deadline gives, at that
// layout's objective bits.
func TestFinalIsPostProcessedSolverLayout(t *testing.T) {
	for _, s := range []Solver{SolverTransfer, SolverAnneal, SolverPortfolio} {
		for _, c := range []struct {
			reps, m    int
			skipPolish bool
		}{{10, 4, false}, {10, 10, false}, {10, 10, true}} {
			inst := layouttest.Replicated(c.reps, c.m)
			adv, err := New(inst, Options{Solver: s, NLP: nlp.Options{Seed: 1}, SkipPolish: c.skipPolish})
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
				t.Errorf("%v Replicated(%d,%d) SkipPolish %v: Final is not the post-processed solver layout",
					s, c.reps, c.m, c.skipPolish)
			}
			if got, obj := rec.FinalObjective, ev.MaxUtilization(want); math.Float64bits(got) != math.Float64bits(obj) {
				t.Errorf("%v Replicated(%d,%d) SkipPolish %v: FinalObjective %.17g, post-processed solver layout %.17g",
					s, c.reps, c.m, c.skipPolish, got, obj)
			}
		}
	}
}

// TestPortfolioCancelMidSolve cancels a portfolio advise mid-run; it must
// stop promptly, skipping the solvers still to run, and still hand back a
// valid, degraded best-so-far recommendation. Under -race this exercises the
// parallel restarts and the trace hook for data races.
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
// constraint-blind projected-gradient solver instead of erroring out when
// the instance carries administrative constraints.
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
			t.Fatal("projected-gradient ran despite administrative constraints")
		}
	}
}
