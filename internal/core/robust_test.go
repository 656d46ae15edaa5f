package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
	"dblayout/internal/nlp"
)

// endlessNLP keeps the solver searching far longer than any test timeout, so
// only cancellation or the budget can stop it.
func endlessNLP(seed int64) nlp.Options {
	return nlp.Options{Seed: seed, MaxIters: 1 << 30, Restarts: 1 << 20}
}

// panicModel is a cost model that panics on every evaluation.
type panicModel struct{}

func (panicModel) Cost(write bool, size, runCount, chi float64) float64 {
	panic("panicModel: deliberately broken")
}

// nanModel is a cost model that returns NaN on every evaluation.
type nanModel struct{}

func (nanModel) Cost(write bool, size, runCount, chi float64) float64 {
	return math.NaN()
}

func brokenInstance(m int, model layout.CostModel) *layout.Instance {
	inst := layouttest.Instance(m)
	for _, t := range inst.Targets {
		t.Model = model
	}
	return inst
}

func TestRecommendContextPreCancelled(t *testing.T) {
	adv, err := New(layouttest.Instance(4), Options{NLP: nlp.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	rec, err := adv.RecommendContext(ctx)
	if rec != nil {
		t.Fatal("pre-cancelled context returned a recommendation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("pre-cancelled return took %v: it solved anyway", elapsed)
	}
}

func TestRecommendContextCancelMidSolve(t *testing.T) {
	inst := layouttest.Instance(4)
	adv, err := New(inst, Options{NLP: endlessNLP(1)})
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
	if !o.rec.Degraded || o.rec.Degradation == nil {
		t.Fatal("cancelled recommendation not marked Degraded")
	}
	if !errors.Is(o.rec.Degradation, context.Canceled) {
		t.Fatalf("degradation cause = %v, want context.Canceled", o.rec.Degradation.Cause)
	}
	if err := inst.ValidateLayout(o.rec.Final); err != nil {
		t.Fatalf("best-so-far layout invalid: %v", err)
	}
	// The solvers poll every few milliseconds; anything under 100ms is
	// prompt next to the unbounded solve this run was configured for.
	if promptness > 100*time.Millisecond {
		t.Fatalf("cancellation took %v", promptness)
	}
}

// TestRecommendContextBudget is the acceptance check: a 50ms budget on a
// larger instance completes with a valid (degraded) layout within 2x the
// budget plus the cheap model-free phases.
func TestRecommendContextBudget(t *testing.T) {
	inst := layouttest.Replicated(4, 8)
	const budget = 50 * time.Millisecond
	adv, err := New(inst, Options{NLP: endlessNLP(1), SolveBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rec, err := adv.RecommendContext(context.Background())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.ValidateLayout(rec.Final); err != nil {
		t.Fatalf("layout invalid: %v", err)
	}
	if !rec.Degraded || !errors.Is(rec.Degradation, ErrBudgetExceeded) {
		t.Fatalf("truncated solve not marked Degraded(ErrBudgetExceeded): %v", rec.Degradation)
	}
	if elapsed > 2*budget {
		t.Fatalf("took %v with a %v budget", elapsed, budget)
	}
}

// TestExpiredBudgetRegularizesOnce bounds what an advise does once its
// budget is gone: whatever the solver, the solve is skipped, the one-shot
// Sec. 4.3 regularizer runs on the initial layout, the polish stops before
// its first object and no further round runs. The recommendation is
// Degraded with ErrBudgetExceeded and is exactly the regularized initial
// layout, which polish would have improved.
func TestExpiredBudgetRegularizesOnce(t *testing.T) {
	inst := layouttest.Replicated(10, 4)
	init := layout.New(inst.N(), inst.M())
	for i := 0; i < init.N; i++ {
		row := make([]float64, init.M)
		row[i%init.M] = 0.5
		row[(i+1)%init.M] = 0.25
		row[(i+2)%init.M] = 0.25
		init.SetRow(i, row)
	}
	ev := layout.NewEvaluator(inst)
	want, err := Regularize(ev, inst, init)
	if err != nil {
		t.Fatal(err)
	}
	if polished, _ := PolishRegular(ev, inst, want, time.Time{}); sameLayout(polished, want) {
		t.Fatal("polish leaves the regularized initial layout as it is; the case cannot tell a polish ran")
	}
	for _, s := range []Solver{SolverTransfer, SolverAnneal, SolverPortfolio} {
		adv, err := New(inst, Options{Solver: s, NLP: nlp.Options{Seed: 1},
			InitialLayouts: []*layout.Layout{init}, SolveBudget: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := adv.Recommend()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !rec.Degraded || !errors.Is(rec.Degradation, ErrBudgetExceeded) {
			t.Errorf("%v: expired budget not marked Degraded(ErrBudgetExceeded): %v", s, rec.Degradation)
		}
		if !sameLayout(rec.Final, want) {
			t.Errorf("%v: Final is not Regularize of the initial layout", s)
		}
	}
}

// TestPolishRegularDeadline pins the polish pass's deadline contract on a
// layout that polish improves (0.8135 -> 0.63): a deadline already in the
// past returns the input unchanged and reports the cut, and a zero deadline
// is unbounded — the same layout as a deadline that never binds.
func TestPolishRegularDeadline(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	init, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := Regularize(ev, inst, init)
	if err != nil {
		t.Fatal(err)
	}

	past, cut := PolishRegular(ev, inst, reg, time.Now().Add(-time.Second))
	if !cut {
		t.Error("polish past its deadline did not report the cut")
	}
	if !sameLayout(past, reg) {
		t.Error("polish past its deadline changed the layout")
	}

	unbounded, cut := PolishRegular(ev, inst, reg, time.Time{})
	if cut {
		t.Error("polish with a zero deadline reported a cut")
	}
	if got := ev.MaxUtilization(unbounded); math.Abs(got-0.63) > 1e-9 {
		t.Errorf("unbounded polish objective %.17g, want 0.63", got)
	}
	far, cut := PolishRegular(ev, inst, reg, time.Now().Add(time.Hour))
	if cut || !sameLayout(far, unbounded) {
		t.Errorf("a non-binding deadline changed the polish (cut %v)", cut)
	}
}

func TestRecommendContextPanickingModel(t *testing.T) {
	inst := brokenInstance(4, panicModel{})
	adv, err := New(inst, Options{NLP: nlp.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := adv.RecommendContext(context.Background())
	if err != nil {
		t.Fatalf("panicking model escalated to an error: %v", err)
	}
	if !rec.Degraded || !errors.Is(rec.Degradation, ErrModelFailure) {
		t.Fatalf("not Degraded(ErrModelFailure): %v", rec.Degradation)
	}
	if err := inst.ValidateLayout(rec.Final); err != nil {
		t.Fatalf("fallback layout invalid: %v", err)
	}
}

// TestRecommendContextNaNModel degrades on models that price requests as
// NaN: a black-box model, and a literal table whose zero size point
// interpolates to NaN below its next point, priced by the kernel from cached
// cells and, behind costOnly, through Cost. The guard reports the same
// failure on both table paths.
func TestRecommendContextNaNModel(t *testing.T) {
	nanTable := layouttest.DiskModel()
	nanTable.Read.Sizes = []float64{0, 131072} // Instance's IX and COLD read 8 KiB
	var failures []string
	for _, model := range []layout.CostModel{nanModel{}, nanTable, costOnly{nanTable}} {
		inst := brokenInstance(4, model)
		adv, err := New(inst, Options{NLP: nlp.Options{Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := adv.RecommendContext(context.Background())
		if err != nil {
			t.Fatalf("%T: NaN model escalated to an error: %v", model, err)
		}
		if !rec.Degraded || !errors.Is(rec.Degradation, ErrModelFailure) {
			t.Fatalf("%T: not Degraded(ErrModelFailure): %v", model, rec.Degradation)
		}
		if err := inst.ValidateLayout(rec.Final); err != nil {
			t.Fatalf("%T: fallback layout invalid: %v", model, err)
		}
		failures = append(failures, rec.Degradation.Error())
	}
	cells, cost := failures[1], failures[2]
	if !strings.Contains(cells, "read cost(size=8192, ") || !strings.HasSuffix(cells, ") = NaN") {
		t.Errorf("cells path reports %q, want the guard's NaN read cost", cells)
	}
	if cells != cost {
		t.Errorf("cells path reports %q, Cost path %q", cells, cost)
	}
}

// TestRecommendContextConcurrent exercises one Advisor from several
// goroutines; run with -race it proves RecommendContext keeps its per-call
// state off the shared Advisor.
func TestRecommendContextConcurrent(t *testing.T) {
	inst := layouttest.Instance(4)
	adv, err := New(inst, Options{NLP: nlp.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rec, err := adv.RecommendContext(context.Background())
			if err == nil {
				err = inst.ValidateLayout(rec.Final)
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

func TestRecommendRepair(t *testing.T) {
	inst := layouttest.Instance(4)
	current, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	// Fail the target holding the most bytes so the repair must move data.
	sizes := inst.Sizes()
	failed, most := 0, -1.0
	for j := 0; j < inst.M(); j++ {
		if b := current.TargetBytes(j, sizes); b > most {
			failed, most = j, b
		}
	}
	rep, err := RecommendRepair(context.Background(), inst, current, []int{failed}, Options{NLP: nlp.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Instance.ValidateLayout(rep.Layout); err != nil {
		t.Fatalf("repaired layout invalid: %v", err)
	}
	for i := 0; i < rep.Layout.N; i++ {
		if rep.Layout.At(i, failed) != 0 {
			t.Fatalf("object %d still places %g on failed target %d", i, rep.Layout.At(i, failed), failed)
		}
	}
	if len(rep.Plan) == 0 || rep.PlanBytes <= 0 {
		t.Fatal("repair of a loaded target produced an empty migration plan")
	}
	if rep.Degraded {
		t.Fatalf("healthy repair marked degraded: %v", rep.Degradation)
	}
	if math.IsNaN(rep.Objective) || rep.Objective <= 0 {
		t.Fatalf("objective = %g", rep.Objective)
	}
	// Unaffected objects must not move.
	affected := make(map[int]bool)
	for _, i := range rep.Affected {
		affected[i] = true
	}
	for i := 0; i < current.N; i++ {
		if affected[i] {
			continue
		}
		for j := 0; j < current.M; j++ {
			if rep.Layout.At(i, j) != current.At(i, j) {
				t.Fatalf("unaffected object %d moved on target %d", i, j)
			}
		}
	}
}

func TestRecommendRepairAllFailed(t *testing.T) {
	inst := layouttest.Instance(2)
	current, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecommendRepair(context.Background(), inst, current, []int{0, 1}, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestRecommendRepairCapacityInfeasible(t *testing.T) {
	// 8 GB of objects on two 5 GB targets: feasible together, infeasible
	// once either fails.
	inst := layouttest.Instance(2)
	inst.Targets[0].Capacity = 5 << 30
	inst.Targets[1].Capacity = 5 << 30
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	l := layout.New(4, 2)
	for i := 0; i < 4; i++ {
		l.SetRow(i, []float64{0.5, 0.5})
	}
	if err := inst.ValidateLayout(l); err != nil {
		t.Fatal(err)
	}
	if _, err := RecommendRepair(context.Background(), inst, l, []int{1}, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestRecommendRepairNothingAffected(t *testing.T) {
	inst := layouttest.Instance(4)
	// Everything lives on targets 0 and 1; target 3 is empty.
	l := layout.New(4, 4)
	for i := 0; i < 4; i++ {
		l.SetRow(i, []float64{0.5, 0.5, 0, 0})
	}
	if err := inst.ValidateLayout(l); err != nil {
		t.Fatal(err)
	}
	rep, err := RecommendRepair(context.Background(), inst, l, []int{3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Affected) != 0 || len(rep.Plan) != 0 || rep.PlanBytes != 0 {
		t.Fatalf("empty target's failure moved data: affected %v, %d moves", rep.Affected, len(rep.Plan))
	}
	for i := 0; i < l.N; i++ {
		for j := 0; j < l.M; j++ {
			if rep.Layout.At(i, j) != l.At(i, j) {
				t.Fatal("layout changed although nothing was affected")
			}
		}
	}
}

// TestRecommendRepairBrokenModel: the evacuation seeding is model-free, so a
// repair still succeeds — degraded — when every cost model panics.
func TestRecommendRepairBrokenModel(t *testing.T) {
	inst := brokenInstance(4, panicModel{})
	// A model-free current layout (InitialLayout never consults models).
	current, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	sizes := inst.Sizes()
	failed, most := 0, -1.0
	for j := 0; j < inst.M(); j++ {
		if b := current.TargetBytes(j, sizes); b > most {
			failed, most = j, b
		}
	}
	rep, err := RecommendRepair(context.Background(), inst, current, []int{failed}, Options{NLP: nlp.Options{Seed: 1}})
	if err != nil {
		t.Fatalf("broken model escalated to an error: %v", err)
	}
	if !rep.Degraded || !errors.Is(rep.Degradation, ErrModelFailure) {
		t.Fatalf("not Degraded(ErrModelFailure): %v", rep.Degradation)
	}
	if err := rep.Instance.ValidateLayout(rep.Layout); err != nil {
		t.Fatalf("degraded repair layout invalid: %v", err)
	}
	for i := 0; i < rep.Layout.N; i++ {
		if rep.Layout.At(i, failed) != 0 {
			t.Fatalf("object %d still on failed target", i)
		}
	}
	if !math.IsNaN(rep.Objective) {
		t.Fatalf("objective = %g, want NaN under a broken model", rep.Objective)
	}
}

func TestRecommendRepairPreCancelled(t *testing.T) {
	inst := layouttest.Instance(4)
	current, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rep, err := RecommendRepair(ctx, inst, current, []int{0}, Options{}); rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("rep = %v, err = %v; want nil, context.Canceled", rep, err)
	}
}

func TestPlaceIncrementalPreCancelled(t *testing.T) {
	inst := layouttest.Instance(4)
	current, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if l, err := PlaceIncrementalContext(ctx, inst, current, []int{3}, nlp.Options{}); l != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("l = %v, err = %v; want nil, context.Canceled", l, err)
	}
}
