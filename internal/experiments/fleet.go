package experiments

import (
	"fmt"
	"strings"
	"time"

	"dblayout/internal/core"
	"dblayout/internal/layouttest"
	"dblayout/internal/nlp"
)

// FleetRow is one solver's line of the fleet-scale study.
type FleetRow struct {
	Solver string
	N, M   int
	// Initial and Final are the predicted max target utilizations of the
	// heuristic initial layout and the recommendation.
	Initial, Final float64
	// Elapsed is the advisor's solve time; Iters and Evals its effort.
	Elapsed      time.Duration
	Iters, Evals int
}

// Fleet runs the fleet-scale study, an extension beyond the paper's largest
// problems (N=160 x M=40): the pruned flat transfer search solves the
// block-sparse layouttest.Fleet instance — N=10000 objects on M=1000
// targets at full scale, N=800 x M=64 in Quick mode. Regularization runs
// (its object-load ordering is a single batch pass plus an O(N log N) sort,
// with candidate stripe widths bounded at fleet scale) and candidate
// pruning is forced so the quick gate exercises the same code paths the
// full run does.
func Fleet(cfg *Config) ([]FleetRow, error) {
	n, m := 10000, 1000
	if cfg.Quick {
		n, m = 800, 64
	}
	inst := layouttest.Fleet(n, m)
	const name = "transfer+prune"
	adv, err := core.New(inst, core.Options{
		Solver: core.SolverTransfer,
		NLP: nlp.Options{
			Seed:         cfg.Seed,
			Workers:      cfg.Workers,
			Trace:        cfg.Trace,
			Restarts:     nlp.NoRestarts,
			MaxIters:     256,
			PruneObjects: 64,
			PruneTargets: 16,
		},
		Rounds: 1,
		// The one-shot Sec. 4.3 regularizer runs (bounded candidate
		// widths keep it near-linear); the multi-pass polish extension
		// is skipped at this scale — its 8 re-placement sweeps would
		// dominate the whole solve.
		SkipPolish: true,
		Logger:     cfg.Logger,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: fleet %s: %w", name, err)
	}
	start := time.Now()
	rec, err := adv.Recommend()
	if err != nil {
		return nil, fmt.Errorf("experiments: fleet %s: %w", name, err)
	}
	elapsed := time.Since(start)
	cfg.countEffort(rec)
	return []FleetRow{{
		Solver:  name,
		N:       n,
		M:       m,
		Initial: rec.InitialObjective,
		Final:   rec.FinalObjective,
		Elapsed: elapsed,
		Iters:   rec.SolverIters,
		Evals:   rec.SolverEvals,
	}}, nil
}

// FleetTable renders the fleet-scale study rows.
func FleetTable(rows []FleetRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %6s %6s %10s %10s %10s %9s %12s\n",
		"Solver", "N", "M", "Initial", "Final", "Elapsed", "Iters", "Evals")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %6d %6d %10.3f %10.3f %10s %9d %12d\n",
			r.Solver, r.N, r.M, r.Initial, r.Final,
			r.Elapsed.Round(time.Millisecond), r.Iters, r.Evals)
	}
	return sb.String()
}
