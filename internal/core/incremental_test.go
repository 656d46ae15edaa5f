package core

import (
	"testing"

	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
	"dblayout/internal/nlp"
)

func TestPlaceIncrementalKeepsExistingRows(t *testing.T) {
	inst := layouttest.Instance(4)
	// Existing layout for objects 0..2 (leaving COLD=3 "new").
	current := layout.New(4, 4)
	current.SetRow(0, []float64{0.5, 0.5, 0, 0})
	current.SetRow(1, []float64{0, 0, 1, 0})
	current.SetRow(2, []float64{0, 0, 0, 1})
	current.SetRow(3, []float64{1, 0, 0, 0}) // ignored: object 3 is the new one

	got, err := PlaceIncremental(inst, current, []int{3}, nlp.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if got.At(i, j) != current.At(i, j) {
				t.Fatalf("existing object %d moved: %v", i, got.Row(i))
			}
		}
	}
	if err := inst.ValidateLayout(got); err != nil {
		t.Fatal(err)
	}
	if !got.IsRegular() {
		t.Fatal("incremental placement broke regularity")
	}
	if len(got.Targets(3)) == 0 {
		t.Fatal("new object not placed")
	}
}

func TestPlaceIncrementalAvoidsHotTarget(t *testing.T) {
	inst := layouttest.Instance(2)
	// Both hot tables on target 0; target 1 nearly idle. A new random
	// object should land on target 1.
	current := layout.New(4, 2)
	current.SetRow(0, []float64{1, 0})
	current.SetRow(1, []float64{1, 0})
	current.SetRow(2, []float64{0, 1}) // IX is the "new" object
	current.SetRow(3, []float64{0, 1})

	got, err := PlaceIncremental(inst, current, []int{2}, nlp.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.At(2, 1) < 0.99 {
		t.Fatalf("new object placed on the hot target: %v", got.Row(2))
	}
}

func TestPlaceIncrementalHonorsConstraints(t *testing.T) {
	inst := layouttest.Instance(4)
	inst.Constraints = &layout.Constraints{
		Deny:     map[int][]int{3: {0, 1}},
		Separate: [][2]int{{3, 1}},
	}
	current := layout.New(4, 4)
	current.SetRow(0, []float64{1, 0, 0, 0})
	current.SetRow(1, []float64{0, 0, 1, 0}) // T2 on target 2
	current.SetRow(2, []float64{0, 1, 0, 0})
	current.SetRow(3, []float64{0, 0, 0, 1})

	got, err := PlaceIncremental(inst, current, []int{3}, nlp.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Denied targets 0,1 and separated-partner target 2 leave only 3.
	if got.At(3, 3) < 0.99 {
		t.Fatalf("constrained placement wrong: %v", got.Row(3))
	}
}

func TestPlaceIncrementalCapacityExhausted(t *testing.T) {
	inst := layouttest.Instance(2)
	inst.Targets[0].Capacity = 6 << 30
	inst.Targets[1].Capacity = 6 << 30
	// Existing objects nearly fill both targets; the 4 GB table can't fit
	// anywhere without moving data.
	current := layout.New(4, 2)
	current.SetRow(0, []float64{1, 0}) // 4 GB on target 0 -> 2 GB free
	current.SetRow(1, []float64{0, 1}) // 2 GB on target 1
	current.SetRow(2, []float64{0, 1}) // +1 GB -> 3 GB free... then:
	current.SetRow(3, []float64{0, 1}) // ignored; object 3 is new (1 GB fits!)
	// Make the new object too big instead.
	inst.Objects[3].Size = 5 << 30
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := PlaceIncremental(inst, current, []int{3}, nlp.Options{Seed: 1}); err == nil {
		t.Fatal("impossible incremental placement accepted")
	}
}

func TestPlaceIncrementalErrors(t *testing.T) {
	inst := layouttest.Instance(4)
	current := layout.SEE(4, 4)
	if _, err := PlaceIncremental(inst, current, nil, nlp.Options{}); err == nil {
		t.Error("empty object list accepted")
	}
	if _, err := PlaceIncremental(inst, current, []int{9}, nlp.Options{}); err == nil {
		t.Error("out-of-range object accepted")
	}
	if _, err := PlaceIncremental(inst, layout.New(2, 2), []int{0}, nlp.Options{}); err == nil {
		t.Error("mismatched layout accepted")
	}
}

func TestMigrationPlanRoundTrip(t *testing.T) {
	inst := layouttest.Instance(4)
	from := layout.SEE(4, 4)
	to := layout.New(4, 4)
	to.SetRow(0, []float64{0.5, 0.5, 0, 0})
	to.SetRow(1, []float64{0, 0, 1, 0})
	to.SetRow(2, []float64{0.25, 0.25, 0.25, 0.25})
	to.SetRow(3, []float64{0, 0, 0, 1})

	plan, err := layout.MigrationPlan(from, to, inst.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	// Object 2 unchanged: no moves for it.
	for _, m := range plan {
		if m.Object == 2 {
			t.Fatalf("unchanged object scheduled for movement: %+v", m)
		}
		if m.Fraction <= 0 || m.Bytes < 0 || m.From == m.To {
			t.Fatalf("malformed move: %+v", m)
		}
	}
	// Applying the plan to `from` must yield `to`.
	applied := from.Clone()
	for _, m := range plan {
		applied.Set(m.Object, m.From, applied.At(m.Object, m.From)-m.Fraction)
		applied.Set(m.Object, m.To, applied.At(m.Object, m.To)+m.Fraction)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if d := applied.At(i, j) - to.At(i, j); d > 1e-9 || d < -1e-9 {
				t.Fatalf("plan does not reach target at (%d,%d): %g vs %g", i, j, applied.At(i, j), to.At(i, j))
			}
		}
	}
	if layout.PlanBytes(plan) <= 0 {
		t.Fatal("plan moves no bytes")
	}
	// Identity migration: empty plan.
	empty, err := layout.MigrationPlan(from, from, inst.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("identity migration has %d moves", len(empty))
	}
	// Dimension mismatch.
	if _, err := layout.MigrationPlan(from, layout.New(2, 2), inst.Sizes()); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}
