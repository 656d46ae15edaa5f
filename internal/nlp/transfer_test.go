package nlp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
)

// TestTransferStateBytesCacheNoDrift is the regression test for the dust-clamp
// drift bug: apply() used to clamp a sub-Epsilon source residual to zero while
// subtracting only the un-clamped delta from the bytes cache, so every clamped
// move leaked row mass and let the cached per-target bytes drift from the
// layout's true byte assignment. After a long random move sequence heavy in
// clamped and whole-assignment moves, the layout must still pass
// CheckIntegrity and the bytes cache must equal a fresh recomputation.
func TestTransferStateBytesCacheNoDrift(t *testing.T) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	for _, tc := range []struct {
		name string
		ev   *layout.Evaluator
	}{
		{"incremental", ev},
	} {
		t.Run(tc.name, func(t *testing.T) {
			init, err := layout.InitialLayout(inst)
			if err != nil {
				t.Fatal(err)
			}
			s := newTransferState(tc.ev, inst, init.Clone())

			rng := rand.New(rand.NewSource(5))
			applied := 0
			for step := 0; step < 2000; step++ {
				i := rng.Intn(s.l.N)
				targets := s.l.Targets(i)
				if len(targets) == 0 {
					continue
				}
				from := targets[rng.Intn(len(targets))]
				have := s.l.At(i, from)
				if have <= layout.Epsilon {
					continue
				}
				to := rng.Intn(s.l.M)
				if to == from {
					continue
				}
				var delta float64
				switch step % 4 {
				case 0:
					delta = have // whole assignment
				case 1:
					delta = have * (1 - 1e-10) // sub-Epsilon residual: must fold
				case 2:
					delta = have * 0.5
				default:
					delta = have * rng.Float64()
				}
				if delta <= layout.Epsilon || !s.fits(i, to, delta) {
					continue
				}
				s.apply(move{obj: i, from: from, to: to, delta: delta})
				applied++
			}
			if applied < 500 {
				t.Fatalf("only %d moves applied; generator too conservative", applied)
			}

			if err := s.l.CheckIntegrity(); err != nil {
				t.Fatalf("after %d moves: %v", applied, err)
			}
			for j := 0; j < s.l.M; j++ {
				want := s.l.TargetBytes(j, s.sizes)
				if diff := math.Abs(s.bytes[j] - want); diff > 1e-6*(1+want) {
					t.Fatalf("target %d: bytes cache %.6f, recomputed %.6f (drift %g)",
						j, s.bytes[j], want, diff)
				}
			}
			// The cached utilizations must also still match a fresh
			// evaluation within the kernel tolerance contract.
			fresh := ev.Utilizations(s.l)
			for j, u := range s.utils {
				scale := math.Max(1, math.Max(u, fresh[j]))
				if math.Abs(u-fresh[j]) > 1e-9*scale {
					t.Fatalf("target %d: cached mu %.17g, fresh mu %.17g", j, u, fresh[j])
				}
			}
		})
	}
}

// TestNoRestartsSingleDescent pins the Options.Restarts sentinel contract:
// NoRestarts (or any negative value) runs a single descent with no
// multi-start rounds, and Result.Restarts reports 0 — previously there was no
// way to request this, because the zero value maps to the default of 3.
func TestNoRestartsSingleDescent(t *testing.T) {
	inst := layouttest.Instance(3)
	ev := layout.NewEvaluator(inst)
	init, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	start := ev.MaxUtilization(init)
	for _, c := range solverCases() {
		t.Run(c.name, func(t *testing.T) {
			res := c.solve(context.Background(), ev, inst, init, Options{Seed: 1, Restarts: NoRestarts, MaxIters: 200})
			if res.Restarts != 0 {
				t.Fatalf("Result.Restarts = %d, want 0", res.Restarts)
			}
			solveCheck(t, inst, res, start)

			// And -2 behaves the same as the named sentinel.
			res2 := c.solve(context.Background(), ev, inst, init, Options{Seed: 1, Restarts: -2, MaxIters: 200})
			if res2.Restarts != 0 {
				t.Fatalf("Restarts=-2: Result.Restarts = %d, want 0", res2.Restarts)
			}
			if res2.Objective != res.Objective {
				t.Fatalf("negative restart values disagree: %g vs %g", res.Objective, res2.Objective)
			}
		})
	}
}
