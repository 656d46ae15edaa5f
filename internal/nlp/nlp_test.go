package nlp

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
)

func TestProjectSimplexKnownCases(t *testing.T) {
	cases := []struct{ in, want []float64 }{
		{[]float64{0.5, 0.5}, []float64{0.5, 0.5}},
		{[]float64{2, 0}, []float64{1, 0}},
		{[]float64{0, 0}, []float64{0.5, 0.5}},
		{[]float64{1, 1}, []float64{0.5, 0.5}},
		{[]float64{-1, -1, -1}, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}},
		{[]float64{0.8, 0.4}, []float64{0.7, 0.3}},
	}
	for _, tc := range cases {
		v := append([]float64(nil), tc.in...)
		ProjectSimplex(v)
		for i := range v {
			if math.Abs(v[i]-tc.want[i]) > 1e-9 {
				t.Errorf("ProjectSimplex(%v) = %v, want %v", tc.in, v, tc.want)
				break
			}
		}
	}
}

func TestProjectSimplexProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		for i, x := range raw {
			// Bound inputs to keep the check numerically meaningful.
			v[i] = math.Mod(x, 100)
			if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
				v[i] = 0
			}
		}
		ProjectSimplex(v)
		var sum float64
		for _, x := range v {
			if x < 0 {
				return false
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-6 {
			return false
		}
		// Idempotence.
		w := append([]float64(nil), v...)
		ProjectSimplex(w)
		for i := range v {
			if math.Abs(v[i]-w[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// solveCheck verifies a solver result against the instance and the starting
// objective, and the objective the solver reports (tracked on the
// incremental kernel) against the reference evaluator's full recomputation,
// to within the kernel's 1e-9 tolerance contract.
func solveCheck(t *testing.T, inst *layout.Instance, res Result, startObj float64) {
	t.Helper()
	if res.Layout == nil {
		t.Fatal("no layout returned")
	}
	if err := inst.ValidateLayout(res.Layout); err != nil {
		t.Fatalf("solver produced invalid layout: %v", err)
	}
	if res.Objective > startObj*(1+1e-9) {
		t.Fatalf("solver worsened the objective: %g -> %g", startObj, res.Objective)
	}
	ref := layout.NewEvaluator(inst).MaxUtilization(res.Layout)
	if math.Abs(res.Objective-ref) > 1e-9*math.Max(1, ref) {
		t.Fatalf("reported objective %.17g, reference evaluator %.17g", res.Objective, ref)
	}
}

func TestTransferSearchImprovesOnInitial(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	init, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	start := ev.MaxUtilization(init)
	res := TransferSearch(context.Background(), ev, inst, init, Options{Seed: 1})
	solveCheck(t, inst, res, start)
	if res.Objective > 0.9*start {
		t.Fatalf("little improvement: %g -> %g", start, res.Objective)
	}
	// The solver must also beat SEE, which co-locates the two hot
	// overlapping sequential tables on every target.
	see := ev.MaxUtilization(layout.SEE(inst.N(), inst.M()))
	if res.Objective >= see {
		t.Fatalf("solver (%.4f) did not beat SEE (%.4f)", res.Objective, see)
	}
}

func TestTransferSearchSeparatesHotTables(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	init, _ := layout.InitialLayout(inst)
	res := TransferSearch(context.Background(), ev, inst, init, Options{Seed: 1})
	l := res.Layout
	// T1 and T2 overlap 0.9 and are both sequential: sharing a target
	// would be costly. Verify they share no target with significant mass.
	for j := 0; j < l.M; j++ {
		if l.At(0, j) > 0.05 && l.At(1, j) > 0.05 {
			t.Fatalf("hot tables share target %d: %v / %v", j, l.Row(0), l.Row(1))
		}
	}
}

func TestTransferSearchRespectsCapacity(t *testing.T) {
	inst := layouttest.Instance(2)
	// Make target 1 too small for the 4 GB table.
	inst.Targets[1].Capacity = 2 << 30
	ev := layout.NewEvaluator(inst)
	init, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	res := TransferSearch(context.Background(), ev, inst, init, Options{Seed: 1})
	solveCheck(t, inst, res, ev.MaxUtilization(init)+1)
}

func TestTransferSearchDeterministic(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	init, _ := layout.InitialLayout(inst)
	a := TransferSearch(context.Background(), ev, inst, init, Options{Seed: 7})
	b := TransferSearch(context.Background(), ev, inst, init, Options{Seed: 7})
	if a.Objective != b.Objective {
		t.Fatalf("non-deterministic: %g vs %g", a.Objective, b.Objective)
	}
}

func TestTransferSearchScales(t *testing.T) {
	inst := layouttest.Replicated(8, 10) // 32 objects, 10 targets
	ev := layout.NewEvaluator(inst)
	init, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	start := ev.MaxUtilization(init)
	res := TransferSearch(context.Background(), ev, inst, init, Options{Seed: 1, Restarts: 1})
	solveCheck(t, inst, res, start)
}

func TestProjectedGradientImproves(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	init, _ := layout.InitialLayout(inst)
	start := ev.MaxUtilization(init)
	res := ProjectedGradient(context.Background(), ev, inst, init, Options{MaxIters: 60})
	solveCheck(t, inst, res, start)
	if res.Objective >= start {
		t.Fatalf("no improvement: %g -> %g", start, res.Objective)
	}
}

func TestProjectedGradientAgreesWithTransfer(t *testing.T) {
	inst := layouttest.Instance(3)
	ev := layout.NewEvaluator(inst)
	init, _ := layout.InitialLayout(inst)
	pg := ProjectedGradient(context.Background(), ev, inst, init, Options{MaxIters: 80})
	ts := TransferSearch(context.Background(), ev, inst, init, Options{Seed: 1})
	// Local optimizers on a non-convex problem: require rough agreement,
	// not equality.
	if pg.Objective > 2*ts.Objective && pg.Objective-ts.Objective > 0.05 {
		t.Fatalf("solvers disagree badly: PG %.4f vs TS %.4f", pg.Objective, ts.Objective)
	}
}

func TestAnnealImproves(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	init, _ := layout.InitialLayout(inst)
	start := ev.MaxUtilization(init)
	res := Anneal(context.Background(), ev, inst, init, Options{Seed: 3, MaxIters: 4000})
	solveCheck(t, inst, res, start)
	if res.Objective >= start {
		t.Fatalf("no improvement: %g -> %g", start, res.Objective)
	}
}

func TestRepairCapacity(t *testing.T) {
	// Two objects of 10 GB each; target 0 can hold 12 GB, target 1 can
	// hold 20 GB. Start with everything on target 0.
	l := layout.New(2, 2)
	l.Set(0, 0, 1)
	l.Set(1, 0, 1)
	sizes := []int64{10 << 30, 10 << 30}
	caps := []int64{12 << 30, 20 << 30}
	if !repairCapacity(l, sizes, caps) {
		t.Fatal("repair failed on a feasible instance")
	}
	if err := l.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if err := l.CheckCapacity(sizes, caps); err != nil {
		t.Fatal(err)
	}
	// Infeasible: both targets too small.
	l2 := layout.New(1, 2)
	l2.Set(0, 0, 1)
	if repairCapacity(l2, []int64{100 << 30}, []int64{1 << 30, 1 << 30}) {
		t.Fatal("repair claimed success on an infeasible instance")
	}
}
