package core

import (
	"context"
	"math"
	"testing"

	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
	"dblayout/internal/nlp"
)

// costOnly hides a model's concrete type, so the layout kernel prices it
// through Cost instead of cached table cells.
type costOnly struct{ layout.CostModel }

// costOnlyInstance returns inst with every target model behind costOnly.
func costOnlyInstance(inst *layout.Instance) *layout.Instance {
	c := *inst
	c.Targets = make([]*layout.Target, len(inst.Targets))
	for j, t := range inst.Targets {
		w := *t
		w.Model = costOnly{t.Model}
		c.Targets[j] = &w
	}
	return &c
}

// fleetOptions is a bounded fleet-scale advise: one pruned transfer round
// without restarts or polish.
func fleetOptions() Options {
	return Options{
		Solver: SolverTransfer,
		NLP: nlp.Options{Seed: 1, Restarts: nlp.NoRestarts, MaxIters: 64,
			PruneObjects: 64, PruneTargets: 16},
		Rounds:     1,
		SkipPolish: true,
	}
}

// TestCostFallbackMatchesCells pins the kernel's two pricing paths to each
// other at the solver level: TransferSearch and Recommend on calibrated-table
// targets (priced from cached cells) and on the same models behind a
// Cost-only wrapper (priced through Cost) must return the same layout, the
// same objective bits and the same evaluation count.
func TestCostFallbackMatchesCells(t *testing.T) {
	for _, c := range []struct {
		name string
		inst *layout.Instance
		opt  Options
	}{
		{"Replicated(10,4)", layouttest.Replicated(10, 4), Options{NLP: nlp.Options{Seed: 1}}},
		{"Fleet(1024,256)", layouttest.Fleet(1024, 256), fleetOptions()},
	} {
		t.Run(c.name, func(t *testing.T) {
			wrapped := costOnlyInstance(c.inst)
			init, err := layout.InitialLayout(c.inst)
			if err != nil {
				t.Fatal(err)
			}
			a := nlp.TransferSearch(context.Background(), layout.NewEvaluator(c.inst), c.inst, init, c.opt.NLP)
			b := nlp.TransferSearch(context.Background(), layout.NewEvaluator(wrapped), wrapped, init, c.opt.NLP)
			if !sameLayout(a.Layout, b.Layout) || math.Float64bits(a.Objective) != math.Float64bits(b.Objective) ||
				a.Evals != b.Evals {
				t.Errorf("TransferSearch: cells %.17g after %d evals, Cost-only %.17g after %d evals (same layout %v)",
					a.Objective, a.Evals, b.Objective, b.Evals, sameLayout(a.Layout, b.Layout))
			}

			recommend := func(inst *layout.Instance) *Recommendation {
				adv, err := New(inst, c.opt)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := adv.Recommend()
				if err != nil {
					t.Fatal(err)
				}
				return rec
			}
			ra, rb := recommend(c.inst), recommend(wrapped)
			if !sameLayout(ra.Final, rb.Final) || math.Float64bits(ra.FinalObjective) != math.Float64bits(rb.FinalObjective) ||
				ra.SolverEvals != rb.SolverEvals {
				t.Errorf("Recommend: cells %.17g after %d evals, Cost-only %.17g after %d evals (same layout %v)",
					ra.FinalObjective, ra.SolverEvals, rb.FinalObjective, rb.SolverEvals, sameLayout(ra.Final, rb.Final))
			}
		})
	}
}
