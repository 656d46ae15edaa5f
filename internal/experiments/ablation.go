package experiments

import (
	"fmt"
	"strings"

	"dblayout/internal/benchdb"
	"dblayout/internal/core"
	"dblayout/internal/layout"
	"dblayout/internal/nlp"
)

// AblationRow reports one advisor variant on the same fitted instance.
type AblationRow struct {
	Variant string
	// Predicted is the model objective (max utilization) of the final
	// layout; Replayed is the measured workload elapsed time under it.
	Predicted float64
	Replayed  float64
}

// Ablation evaluates the design choices DESIGN.md stars, on the OLAP1-63
// homogeneous instance: solver strategy, initial layout, and the
// regularization/polish pipeline. Every variant is both predicted (model
// objective) and replayed (measured elapsed seconds).
func Ablation(cfg *Config) ([]AblationRow, error) {
	s, err := cfg.scenario(benchdb.OLAP163(), nil, fourDisks()...)
	if err != nil {
		return nil, err
	}
	heuristic, err := layout.InitialLayout(s.inst)
	if err != nil {
		return nil, err
	}

	variants := []struct {
		name string
		opt  core.Options
	}{
		{"transfer+multistart (default)", core.Options{InitialLayouts: []*layout.Layout{heuristic, s.see}}},
		{"transfer, heuristic init only", core.Options{InitialLayouts: []*layout.Layout{heuristic}}},
		{"transfer, SEE init only", core.Options{InitialLayouts: []*layout.Layout{s.see}}},
		{"anneal", core.Options{
			Solver:         core.SolverAnneal,
			NLP:            nlp.Options{MaxIters: 20000},
			InitialLayouts: []*layout.Layout{heuristic},
		}},
		{"solver portfolio", core.Options{Solver: core.SolverPortfolio, InitialLayouts: []*layout.Layout{heuristic}}},
		{"no polish, single round", core.Options{
			InitialLayouts: []*layout.Layout{heuristic, s.see},
			SkipPolish:     true,
			Rounds:         1,
		}},
	}

	rows := []AblationRow{{
		Variant:   "SEE baseline",
		Predicted: layout.NewEvaluator(s.inst).MaxUtilization(s.see),
		Replayed:  s.seeElapsed,
	}}
	for _, v := range variants {
		v.opt.NLP.Seed, v.opt.NLP.Workers = cfg.Seed, cfg.Workers
		adv, err := core.New(s.inst, v.opt)
		if err != nil {
			return nil, err
		}
		rec, err := adv.Recommend()
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %q: %w", v.name, err)
		}
		row := AblationRow{Variant: v.name, Predicted: rec.FinalObjective}
		if row.Replayed, err = s.elapsed(cfg, rec.Final); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationTable renders the ablation rows.
func AblationTable(rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-32s %16s %14s\n", "Variant", "Predicted util", "Replayed (s)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-32s %15.1f%% %14.0f\n", r.Variant, 100*r.Predicted, r.Replayed)
	}
	return sb.String()
}
