package nlp

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
)

func TestPruneBounds(t *testing.T) {
	cases := []struct {
		name         string
		opt          Options
		n, m         int
		wantO, wantT int
	}{
		{"paper scale stays dense", Options{}, 160, 40, 0, 0},
		{"auto engages at threshold", Options{}, 1 << 10, 1 << 8,
			defaultPruneObjects, defaultPruneTargets},
		{"negative disables", Options{PruneObjects: -1}, 1 << 10, 1 << 8, 0, 0},
		{"negative targets disables", Options{PruneTargets: -1}, 1 << 10, 1 << 8, 0, 0},
		{"explicit forces on small problems", Options{PruneObjects: 4, PruneTargets: 2}, 6, 6, 4, 2},
		{"explicit objects defaults targets", Options{PruneObjects: 8}, 6, 6, 8, defaultPruneTargets},
		{"explicit targets defaults objects", Options{PruneTargets: 3}, 6, 6, defaultPruneObjects, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			po, pt := c.opt.pruneBounds(c.n, c.m)
			if po != c.wantO || pt != c.wantT {
				t.Fatalf("pruneBounds(%d, %d) = (%d, %d), want (%d, %d)",
					c.n, c.m, po, pt, c.wantO, c.wantT)
			}
		})
	}
}

// TestPrunedConvergenceSoundness drives pruned descents to convergence and
// checks the termination contract: whenever the pruned bestMove reports no
// improving move, a fully unpruned scan from the same state must agree —
// the fallback guarantees pruning can tighten the search, never wedge it
// early.
func TestPrunedConvergenceSoundness(t *testing.T) {
	pruned := Options{PruneObjects: 3, PruneTargets: 2}.withDefaults()
	dense := Options{PruneObjects: -1}.withDefaults()
	lim := newLimiterAt(context.Background(), time.Time{})

	for trial := 0; trial < 4; trial++ {
		inst := layouttest.Replicated(3+trial, 6)
		ev := layout.NewEvaluator(inst)
		init, err := layout.InitialLayout(inst)
		if err != nil {
			t.Fatal(err)
		}
		// Scramble the start a little so trials converge from different
		// basins.
		s := newTransferState(ev, inst, init.Clone())
		s.perturb(rand.New(rand.NewSource(int64(trial))), pruned)

		converged := false
		for iter := 0; iter < 4000; iter++ {
			curMax, curSum := s.objectivePair()
			mv, ok := s.bestMove(curMax, curSum, pruned, lim)
			if !ok {
				if _, denseOK := s.bestMove(curMax, curSum, dense, lim); denseOK {
					t.Fatalf("trial %d: pruned search converged but a dense scan still improves", trial)
				}
				converged = true
				break
			}
			newMax, newSum := s.tryMove(mv)
			if newMax >= curMax+1e-12 && newSum >= curSum {
				t.Fatalf("trial %d: accepted non-improving move %+v", trial, mv)
			}
			s.apply(mv)
		}
		if !converged {
			t.Fatalf("trial %d: pruned descent did not converge", trial)
		}
	}
}

// TestPrunedDeterminismAcrossWorkers pins the workers-independence contract
// with pruning forced on: the restart rounds all descend through the pruned
// scan, and the chosen layout must still be bit-identical at any worker
// count.
func TestPrunedDeterminismAcrossWorkers(t *testing.T) {
	inst := layouttest.Replicated(6, 6)
	ev := layout.NewEvaluator(inst)
	init, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(workers int) Result {
		return TransferSearch(context.Background(), ev, inst, init, Options{
			Seed: 42, Restarts: 6, Workers: workers,
			PruneObjects: 4, PruneTargets: 2,
		})
	}
	r1, r8 := solve(1), solve(8)
	if r1.Objective != r8.Objective {
		t.Fatalf("objective differs across workers: %v vs %v", r1.Objective, r8.Objective)
	}
	for i := 0; i < inst.N(); i++ {
		for j := 0; j < len(inst.Targets); j++ {
			if a, b := r1.Layout.At(i, j), r8.Layout.At(i, j); a != b {
				t.Fatalf("layout[%d][%d] differs across workers: %v vs %v", i, j, a, b)
			}
		}
	}
}

// TestPrunedSolveMatchesDenseOnAuto checks the auto threshold end to end: a
// paper-scale solve with default options must be bit-identical to one with
// pruning explicitly disabled, because automatic pruning must not engage
// below pruneAutoPairs.
func TestPrunedSolveMatchesDenseOnAuto(t *testing.T) {
	inst := layouttest.Replicated(8, 8)
	ev := layout.NewEvaluator(inst)
	init, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Seed: 7, Restarts: 2, MaxIters: 300}
	off := base
	off.PruneObjects, off.PruneTargets = -1, -1
	ra := TransferSearch(context.Background(), ev, inst, init, base)
	rb := TransferSearch(context.Background(), ev, inst, init, off)
	if ra.Objective != rb.Objective {
		t.Fatalf("auto pruning changed a paper-scale solve: %v vs %v", ra.Objective, rb.Objective)
	}
	for i := 0; i < inst.N(); i++ {
		for j := 0; j < len(inst.Targets); j++ {
			if a, b := ra.Layout.At(i, j), rb.Layout.At(i, j); a != b {
				t.Fatalf("layout[%d][%d] differs with pruning auto vs off: %v vs %v", i, j, a, b)
			}
		}
	}
}
