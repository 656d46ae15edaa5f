package layout_test

import (
	"errors"
	"strings"
	"testing"

	"dblayout/internal/layout"
	"dblayout/internal/migrate"
)

// These tests pin MigrationPlan's documented contract with its scheduler:
// the plan comes in object order, migrate.BuildScript puts it in an order
// that never overfills a target under copy-then-commit, and a plan that no
// order can run is reported as a capacity cycle. They live in an external
// test package because migrate imports layout.

// rotationFixture builds a 3-object / 3-target problem whose migration is a
// pure capacity rotation: every object fills its target entirely and the
// target layout shifts each object to the next target, so no move can run
// before another frees its destination.
func rotationFixture() (from, to *layout.Layout, sizes, caps []int64) {
	const sz = 100
	sizes = []int64{sz, sz, sz}
	caps = []int64{sz, sz, sz}
	from = layout.New(3, 3)
	to = layout.New(3, 3)
	for i := 0; i < 3; i++ {
		from.Set(i, i, 1)
		to.Set(i, (i+1)%3, 1)
	}
	return from, to, sizes, caps
}

// checkOrderSafe replays a script's moves from `from` and fails the test if
// a move's copy does not fit its destination while the source still holds
// the data.
func checkOrderSafe(t *testing.T, from *layout.Layout, steps []migrate.Step, sizes, caps []int64) {
	t.Helper()
	occ := make([]float64, from.M)
	for j := range occ {
		occ[j] = from.TargetBytes(j, sizes)
	}
	for i, s := range steps {
		m := s.Move
		if float64(m.Bytes) > float64(caps[m.To])-occ[m.To] {
			t.Fatalf("step %d (%+v) overflows target %d", i, m, m.To)
		}
		occ[m.To] += float64(m.Bytes)
		occ[m.From] -= float64(m.Bytes)
	}
}

func TestOrderPlanDetectsCycle(t *testing.T) {
	from, to, sizes, caps := rotationFixture()
	plan, err := layout.MigrationPlan(from, to, sizes)
	if err != nil {
		t.Fatal(err)
	}
	_, err = migrate.BuildScript(from, plan, sizes, caps, migrate.ScratchSpec{})
	var cyc *migrate.CycleError
	if !errors.As(err, &cyc) {
		t.Fatalf("BuildScript = %v, want *migrate.CycleError", err)
	}
	if len(cyc.Moves) != 3 || len(cyc.Objects) != 3 {
		t.Fatalf("cycle %+v, want all 3 moves", cyc)
	}
	seen := map[int]bool{}
	for _, o := range cyc.Objects {
		seen[o] = true
	}
	for i := 0; i < 3; i++ {
		if !seen[i] {
			t.Errorf("cycle error does not name object %d: %v", i, cyc)
		}
	}
	if !strings.Contains(cyc.Error(), "capacity cycle") {
		t.Errorf("unhelpful cycle error: %v", cyc)
	}
}

func TestSafePlanReordersAndRejects(t *testing.T) {
	// Reorderable: rotation with one roomy target.
	from, to, sizes, caps := rotationFixture()
	caps[2] = 200
	plan, err := layout.MigrationPlan(from, to, sizes)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := migrate.BuildScript(from, plan, sizes, caps, migrate.ScratchSpec{})
	if err != nil {
		t.Fatalf("BuildScript on reorderable rotation: %v", err)
	}
	if len(steps) != len(plan) {
		t.Fatalf("script has %d steps for %d moves", len(steps), len(plan))
	}
	checkOrderSafe(t, from, steps, sizes, caps)

	// Deadlocked: the pure rotation must be rejected with a cycle error.
	from, to, sizes, caps = rotationFixture()
	if plan, err = layout.MigrationPlan(from, to, sizes); err != nil {
		t.Fatal(err)
	}
	_, err = migrate.BuildScript(from, plan, sizes, caps, migrate.ScratchSpec{})
	var cyc *migrate.CycleError
	if !errors.As(err, &cyc) {
		t.Fatalf("BuildScript on deadlocked rotation = %v, want *migrate.CycleError", err)
	}
}
