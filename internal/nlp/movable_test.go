package nlp

import (
	"context"
	"testing"

	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
)

func TestTransferSearchMovableObjects(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	init, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	// Freeze everything except the index (object 2).
	res := TransferSearch(context.Background(), ev, inst, init, Options{Seed: 1, MovableObjects: []int{2}})
	for _, i := range []int{0, 1, 3} {
		for j := 0; j < 4; j++ {
			if res.Layout.At(i, j) != init.At(i, j) {
				t.Fatalf("frozen object %d moved: %v -> %v", i, init.Row(i), res.Layout.Row(i))
			}
		}
	}
	if err := inst.ValidateLayout(res.Layout); err != nil {
		t.Fatal(err)
	}
	// An empty (non-nil) movable set freezes the whole layout.
	res = TransferSearch(context.Background(), ev, inst, init, Options{Seed: 1, MovableObjects: []int{}, Restarts: 1})
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if res.Layout.At(i, j) != init.At(i, j) {
				t.Fatal("fully-frozen layout changed")
			}
		}
	}
}

func TestAnnealMovableObjects(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	init, _ := layout.InitialLayout(inst)
	res := Anneal(context.Background(), ev, inst, init, Options{Seed: 3, MaxIters: 2000, MovableObjects: []int{2, 3}})
	for _, i := range []int{0, 1} {
		for j := 0; j < 4; j++ {
			if res.Layout.At(i, j) != init.At(i, j) {
				t.Fatalf("frozen object %d moved under annealing", i)
			}
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxIters <= 0 || o.Restarts <= 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	// Explicit negative restarts mean "no restarts", not the default.
	if o := (Options{Restarts: -1}).withDefaults(); o.Restarts != 0 {
		t.Fatalf("Restarts=-1 should mean none, got %d", o.Restarts)
	}
}
