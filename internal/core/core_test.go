package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
	"dblayout/internal/nlp"
)

func TestAdvisorPipeline(t *testing.T) {
	inst := layouttest.Instance(4)
	adv, err := New(inst, Options{NLP: nlp.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := adv.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Initial == nil || rec.Solver == nil || rec.Final == nil {
		t.Fatal("missing pipeline stages")
	}
	if err := inst.ValidateLayout(rec.Final); err != nil {
		t.Fatalf("final layout invalid: %v", err)
	}
	if !rec.Final.IsRegular() {
		t.Fatal("final layout not regular")
	}
	if rec.SolverObjective > rec.InitialObjective*(1+1e-9) {
		t.Fatalf("solver worsened objective: %g -> %g", rec.InitialObjective, rec.SolverObjective)
	}
	// The recommended layout should beat SEE on this interference-heavy
	// instance.
	see := adv.Evaluator().MaxUtilization(layout.SEE(inst.N(), inst.M()))
	if rec.FinalObjective >= see {
		t.Fatalf("final %.4f did not beat SEE %.4f", rec.FinalObjective, see)
	}
}

func TestAdvisorSkipRegularization(t *testing.T) {
	inst := layouttest.Instance(4)
	adv, err := New(inst, Options{SkipRegularization: true, NLP: nlp.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := adv.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Final != rec.Solver {
		t.Fatal("final should be the solver layout when regularization is skipped")
	}
	if rec.RegularizeTime != 0 {
		t.Fatal("regularization time should be zero")
	}
}

func TestAdvisorMultiStart(t *testing.T) {
	inst := layouttest.Instance(4)
	see := layout.SEE(inst.N(), inst.M())
	heuristic, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := New(inst, Options{
		InitialLayouts: []*layout.Layout{see, heuristic},
		NLP:            nlp.Options{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := adv.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	// The multi-start result must be at least as good as the single-start
	// run from either initial layout alone.
	single, err := New(inst, Options{
		InitialLayouts: []*layout.Layout{heuristic},
		NLP:            nlp.Options{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srec, err := single.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if rec.FinalObjective > srec.FinalObjective*(1+1e-9) {
		t.Fatalf("multi-start %.4f worse than single-start %.4f", rec.FinalObjective, srec.FinalObjective)
	}
}

func TestAdvisorSolverVariants(t *testing.T) {
	inst := layouttest.Instance(4)
	for _, solver := range []Solver{SolverTransfer, SolverAnneal, SolverPortfolio} {
		adv, err := New(inst, Options{Solver: solver, NLP: nlp.Options{Seed: 2, MaxIters: 500}})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := adv.Recommend()
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		if err := inst.ValidateLayout(rec.Final); err != nil {
			t.Fatalf("%v: invalid layout: %v", solver, err)
		}
		if !rec.Final.IsRegular() {
			t.Fatalf("%v: not regular", solver)
		}
		if rec.FinalObjective > rec.InitialObjective*1.2 {
			t.Fatalf("%v: objective %g much worse than initial %g", solver, rec.FinalObjective, rec.InitialObjective)
		}
	}
}

func TestAdvisorRejectsInvalidInstance(t *testing.T) {
	inst := layouttest.Instance(2)
	inst.Targets[0].Model = nil
	if _, err := New(inst, Options{}); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

// TestAdvisorRejectsUnknownSolver checks that New refuses a Solver value it
// has no solvers for, rather than running some other solver in its place.
func TestAdvisorRejectsUnknownSolver(t *testing.T) {
	_, err := New(layouttest.Instance(2), Options{Solver: SolverPortfolio + 1})
	if err == nil || !strings.Contains(err.Error(), "unknown solver") {
		t.Fatalf("New with an unknown solver: err = %v, want an unknown-solver error", err)
	}
}

func TestConsistentCandidates(t *testing.T) {
	// The paper's example: (47%, 35%, 18%) admits exactly (100,0,0),
	// (50,50,0), (33,33,33).
	cands := consistentCandidates([]float64{0.47, 0.35, 0.18}, 3)
	want := [][]float64{
		{1, 0, 0},
		{0.5, 0.5, 0},
		{1.0 / 3, 1.0 / 3, 1.0 / 3},
	}
	if len(cands) != len(want) {
		t.Fatalf("%d candidates, want %d", len(cands), len(want))
	}
	for c := range want {
		for j := range want[c] {
			if math.Abs(cands[c][j]-want[c][j]) > 1e-9 {
				t.Fatalf("candidate %d = %v, want %v", c, cands[c], want[c])
			}
		}
	}
}

func TestConsistentCandidatesTieBreak(t *testing.T) {
	// Equal fractions tie-break by target index (footnote 1).
	cands := consistentCandidates([]float64{0.5, 0.5}, 2)
	if cands[0][0] != 1 || cands[0][1] != 0 {
		t.Fatalf("tie not broken by index: %v", cands[0])
	}
}

func TestBalancingCandidates(t *testing.T) {
	cands := balancingCandidates([]float64{0.9, 0.1, 0.5}, 3)
	// k=1: least-loaded target (1) gets 100%.
	if cands[0][1] != 1 {
		t.Fatalf("k=1 candidate = %v", cands[0])
	}
	// k=2: targets 1 and 2 get 50%.
	if cands[1][1] != 0.5 || cands[1][2] != 0.5 || cands[1][0] != 0 {
		t.Fatalf("k=2 candidate = %v", cands[1])
	}
}

func TestRegularizePreservesValidRegular(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	// An already-regular layout passes through with rows untouched.
	l, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := Regularize(ev, inst, l)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < l.N; i++ {
		for j := 0; j < l.M; j++ {
			if reg.At(i, j) != l.At(i, j) {
				t.Fatalf("regular input modified at (%d,%d)", i, j)
			}
		}
	}
}

func TestRegularizeProducesRegularValid(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	// Build a deliberately non-regular valid layout.
	l := layout.New(4, 4)
	l.SetRow(0, []float64{0.47, 0.35, 0.18, 0})
	l.SetRow(1, []float64{0, 0.6, 0.4, 0})
	l.SetRow(2, []float64{0.25, 0.25, 0.25, 0.25})
	l.SetRow(3, []float64{0, 0, 0.1, 0.9})
	if err := inst.ValidateLayout(l); err != nil {
		t.Fatal(err)
	}
	reg, err := Regularize(ev, inst, l)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.IsRegular() {
		t.Fatal("not regular")
	}
	if err := inst.ValidateLayout(reg); err != nil {
		t.Fatal(err)
	}
}

func TestRegularizeTightCapacity(t *testing.T) {
	// With barely enough room, regularization must still find valid rows
	// (balancing candidates include spreading across all targets).
	inst := layouttest.Instance(2)
	inst.Targets[0].Capacity = 5 << 30
	inst.Targets[1].Capacity = 5 << 30 // total 10 GB for 8 GB of objects
	ev := layout.NewEvaluator(inst)
	l := layout.New(4, 2)
	l.SetRow(0, []float64{0.6, 0.4})
	l.SetRow(1, []float64{0.3, 0.7})
	l.SetRow(2, []float64{0.5, 0.5})
	l.SetRow(3, []float64{0.2, 0.8})
	if err := inst.ValidateLayout(l); err != nil {
		t.Fatal(err)
	}
	reg, err := Regularize(ev, inst, l)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.ValidateLayout(reg); err != nil {
		t.Fatal(err)
	}
}

func TestRegularizeFleetScaleBoundedWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale regularization")
	}
	// n*m == 1<<18: exactly the threshold at which the candidate-width cap
	// engages. Below it (every paper-scale problem) the exhaustive
	// all-widths scan still runs, so output there is unchanged.
	n, m := 512, 512
	inst := layouttest.Fleet(n, m)
	for _, tgt := range inst.Targets {
		tgt.Capacity *= 4 // headroom: the test layout is deliberately lopsided
	}
	ev := layout.NewEvaluator(inst)
	l := layout.New(n, m)
	for i := 0; i < n; i++ {
		row := make([]float64, m)
		for k, f := range []float64{0.4, 0.3, 0.2, 0.1} {
			row[(i+k)%m] = f
		}
		l.SetRow(i, row)
	}
	if err := inst.ValidateLayout(l); err != nil {
		t.Fatal(err)
	}
	// The batch load pass must be bit-identical to the per-object path it
	// replaced (sampled: the per-object path is the O(N^2) scan).
	loads := ev.ObjectLoads(l)
	for i := 0; i < n; i += 67 {
		if want := ev.ObjectLoad(l, i); loads[i] != want {
			t.Fatalf("ObjectLoads[%d] = %v, ObjectLoad = %v (not bit-identical)", i, loads[i], want)
		}
	}
	reg, err := Regularize(ev, inst, l)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.IsRegular() {
		t.Fatal("result not regular")
	}
	if err := inst.ValidateLayout(reg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		width := 0
		for j := 0; j < m; j++ {
			if reg.At(i, j) > layout.Epsilon {
				width++
			}
		}
		if width > 64 {
			t.Fatalf("object %d striped across %d targets; candidate width cap not applied", i, width)
		}
	}
}

func TestRegularizeImpossible(t *testing.T) {
	// Objects bigger than any single target and capacity so tight that
	// no regular candidate fits -> failure, as Sec. 4.3 allows.
	inst := layouttest.Instance(2)
	inst.Objects[0].Size = 7 << 30
	inst.Objects[1].Size = 7 << 30
	inst.Objects[2].Size = 7 << 30
	inst.Objects[3].Size = 7 << 30
	inst.Targets[0].Capacity = 14 << 30
	inst.Targets[1].Capacity = 14 << 30
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	ev := layout.NewEvaluator(inst)
	// Non-regular valid layout: each target holds exactly 14 GB.
	l := layout.New(4, 2)
	l.SetRow(0, []float64{0.9, 0.1})
	l.SetRow(1, []float64{0.1, 0.9})
	l.SetRow(2, []float64{0.6, 0.4})
	l.SetRow(3, []float64{0.4, 0.6})
	if err := inst.ValidateLayout(l); err != nil {
		t.Fatal(err)
	}
	// Regular candidates per object: (100,0), (0,100) or (50,50). Any
	// 100% placement puts 7 GB on one target; feasibility depends on the
	// order — the point is Regularize either succeeds with a valid
	// regular layout or reports an error, never returns garbage.
	reg, err := Regularize(ev, inst, l)
	if err != nil {
		return // acceptable: paper allows failure under tight space
	}
	if !reg.IsRegular() {
		t.Fatal("claimed success with non-regular layout")
	}
	if err := inst.ValidateLayout(reg); err != nil {
		t.Fatalf("claimed success with invalid layout: %v", err)
	}
}

// Property: regularizing any valid random layout yields a regular valid
// layout (or a clean error under capacity pressure).
func TestRegularizeProperty(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	f := func(seed uint32) bool {
		l := layout.New(4, 4)
		s := seed
		next := func() float64 {
			s = s*1664525 + 1013904223
			return float64(s%1000) / 1000
		}
		for i := 0; i < 4; i++ {
			row := []float64{next(), next(), next(), next()}
			var sum float64
			for _, v := range row {
				sum += v
			}
			if sum == 0 {
				row[0] = 1
				sum = 1
			}
			for j := range row {
				row[j] /= sum
			}
			l.SetRow(i, row)
		}
		if err := inst.ValidateLayout(l); err != nil {
			return true // capacity-violating random draw; skip
		}
		reg, err := Regularize(ev, inst, l)
		if err != nil {
			return false // plenty of capacity: must succeed
		}
		return reg.IsRegular() && inst.ValidateLayout(reg) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Regularization should not blow up the objective: the paper observes the
// regularized layout is close to the solver's.
func TestRegularizeObjectiveClose(t *testing.T) {
	inst := layouttest.Instance(4)
	adv, err := New(inst, Options{NLP: nlp.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := adv.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if rec.FinalObjective > 1.5*rec.SolverObjective+0.05 {
		t.Fatalf("regularization cost too much: solver %.4f -> regular %.4f",
			rec.SolverObjective, rec.FinalObjective)
	}
}
