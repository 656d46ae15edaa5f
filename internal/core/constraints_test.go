package core

import (
	"testing"
	"time"

	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
	"dblayout/internal/nlp"
)

// constrainedInstance pins the hot table to targets {0,1}, bans the index
// from target 0, and keeps the two hot tables separated.
func constrainedInstance() *layout.Instance {
	inst := layouttest.Instance(4)
	inst.Constraints = &layout.Constraints{
		Allow:    map[int][]int{0: {0, 1}},
		Deny:     map[int][]int{2: {0}},
		Separate: [][2]int{{0, 1}},
	}
	return inst
}

func TestAdvisorHonorsConstraints(t *testing.T) {
	inst := constrainedInstance()
	adv, err := New(inst, Options{NLP: nlp.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := adv.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.ValidateLayout(rec.Final); err != nil {
		t.Fatalf("final layout violates constraints: %v", err)
	}
	// Pin respected: T1 only on targets 0/1.
	if rec.Final.At(0, 2) > layout.Epsilon || rec.Final.At(0, 3) > layout.Epsilon {
		t.Errorf("pinned object escaped: %v", rec.Final.Row(0))
	}
	// Deny respected.
	if rec.Final.At(2, 0) > layout.Epsilon {
		t.Errorf("denied placement used: %v", rec.Final.Row(2))
	}
	// Separation respected.
	for j := 0; j < 4; j++ {
		if rec.Final.At(0, j) > layout.Epsilon && rec.Final.At(1, j) > layout.Epsilon {
			t.Errorf("separated objects share target %d", j)
		}
	}
	// The solver's intermediate layout also satisfies the constraints
	// (they are enforced during the search, not as a post-filter).
	if err := inst.Constraints.Check(rec.Solver); err != nil {
		t.Errorf("solver layout violates constraints: %v", err)
	}
}

func TestAdvisorConstraintsWithAnneal(t *testing.T) {
	inst := constrainedInstance()
	adv, err := New(inst, Options{Solver: SolverAnneal, NLP: nlp.Options{Seed: 2, MaxIters: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := adv.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.ValidateLayout(rec.Final); err != nil {
		t.Fatalf("anneal final layout violates constraints: %v", err)
	}
}

func TestRegularizeHonorsConstraints(t *testing.T) {
	inst := constrainedInstance()
	ev := layout.NewEvaluator(inst)
	// Non-regular but constraint-satisfying layout.
	l := layout.New(4, 4)
	l.SetRow(0, []float64{0.7, 0.3, 0, 0})
	l.SetRow(1, []float64{0, 0, 0.6, 0.4})
	l.SetRow(2, []float64{0, 0.5, 0.25, 0.25})
	l.SetRow(3, []float64{0.25, 0.25, 0.25, 0.25})
	if err := inst.ValidateLayout(l); err != nil {
		t.Fatal(err)
	}
	reg, err := Regularize(ev, inst, l)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.ValidateLayout(reg); err != nil {
		t.Fatalf("regularized layout violates constraints: %v", err)
	}
	polished, _ := PolishRegular(ev, inst, reg, time.Time{})
	if err := inst.ValidateLayout(polished); err != nil {
		t.Fatalf("polished layout violates constraints: %v", err)
	}
}

func TestUnsatisfiableConstraints(t *testing.T) {
	inst := layouttest.Instance(2)
	// Hot tables must be separated AND both pinned to target 0: the
	// instance itself validates (each object has a permitted target) but
	// no layout can satisfy it; the initial-layout heuristic must fail
	// cleanly.
	inst.Constraints = &layout.Constraints{
		Allow:    map[int][]int{0: {0}, 1: {0}},
		Separate: [][2]int{{0, 1}},
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := layout.InitialLayout(inst); err == nil {
		t.Fatal("unsatisfiable constraints produced an initial layout")
	}
}
