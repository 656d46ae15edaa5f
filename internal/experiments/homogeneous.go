package experiments

import (
	"fmt"
	"sort"
	"strings"

	"dblayout/internal/benchdb"
	"dblayout/internal/core"
	"dblayout/internal/layout"
)

// WorkloadRun holds everything the homogeneous-target study produces for one
// workload: it backs paper Figs. 1, 11, 12, 13 and 14.
type WorkloadRun struct {
	Workload string
	// SEEElapsed and OptElapsed are replay completion times (Fig. 11).
	SEEElapsed float64
	OptElapsed float64
	// Rec is the advisor's recommendation (solver and regular layouts,
	// Figs. 1/12/14, and timings).
	Rec *core.Recommendation
	// SEEUtil, InitUtil, SolverUtil, RegularUtil are the predicted
	// per-target utilizations at each advisor stage (Fig. 13).
	SEEUtil, InitUtil, SolverUtil, RegularUtil []float64
	// Instance is the advisor's problem instance (fitted workloads).
	Instance *layout.Instance
}

// Homogeneous runs the paper's Sec. 6.2 study: OLAP1-63 and OLAP8-63 on four
// identical disks, SEE baseline vs. advisor-recommended layout.
func Homogeneous(cfg *Config) ([]*WorkloadRun, error) {
	var out []*WorkloadRun
	for _, w := range []*benchdb.OLAPWorkload{benchdb.OLAP163(), benchdb.OLAP863()} {
		run, err := homogeneousOne(cfg, w)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", w.Name, err)
		}
		out = append(out, run)
	}
	return out, nil
}

func homogeneousOne(cfg *Config, w *benchdb.OLAPWorkload) (*WorkloadRun, error) {
	s, err := cfg.scenario(w, nil, fourDisks()...)
	if err != nil {
		return nil, err
	}
	rec, err := cfg.advise(s.inst)
	if err != nil {
		return nil, err
	}
	opt, err := s.elapsed(cfg, rec.Final)
	if err != nil {
		return nil, err
	}

	ev := layout.NewEvaluator(s.inst)
	return &WorkloadRun{
		Workload:    w.Name,
		SEEElapsed:  s.seeElapsed,
		OptElapsed:  opt,
		Rec:         rec,
		SEEUtil:     ev.Utilizations(s.see),
		InitUtil:    ev.Utilizations(rec.Initial),
		SolverUtil:  ev.Utilizations(rec.Solver),
		RegularUtil: ev.Utilizations(rec.Final),
		Instance:    s.inst,
	}, nil
}

// Fig11Table renders the paper's Fig. 11 rows.
func Fig11Table(runs []*WorkloadRun) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %18s %18s %9s\n", "Workload", "Baseline (SEE) s", "Optimized s", "Speedup")
	for _, r := range runs {
		fmt.Fprintf(&sb, "%-10s %18.0f %18.0f %9s\n",
			r.Workload, r.SEEElapsed, r.OptElapsed, speedup(r.SEEElapsed, r.OptElapsed))
	}
	return sb.String()
}

// Fig13Table renders the per-stage predicted utilizations (paper Fig. 13).
func Fig13Table(r *WorkloadRun) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: estimated target utilizations (%%)\n", r.Workload)
	fmt.Fprintf(&sb, "%-8s %8s %8s %8s %8s\n", "Target", "SEE", "Initial", "Solver", "Regular")
	for j := range r.SEEUtil {
		fmt.Fprintf(&sb, "%-8s %8.1f %8.1f %8.1f %8.1f\n",
			r.Instance.Targets[j].Name,
			100*r.SEEUtil[j], 100*r.InitUtil[j], 100*r.SolverUtil[j], 100*r.RegularUtil[j])
	}
	return sb.String()
}

// LayoutTable renders a layout for the paper's layout figures (Figs. 1, 12,
// 14, 16, 20): objects in decreasing request-rate order, the hottest `top`
// of them, with the percentage of each object on each target.
func LayoutTable(inst *layout.Instance, l *layout.Layout, top int) string {
	order := make([]int, inst.N())
	for i := range order {
		order[i] = i
	}
	ws := inst.Workloads.Workloads
	sort.SliceStable(order, func(a, b int) bool {
		return ws[order[a]].TotalRate() > ws[order[b]].TotalRate()
	})
	if top > 0 && top < len(order) {
		order = order[:top]
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s", "Object")
	for _, t := range inst.Targets {
		fmt.Fprintf(&sb, " %9s", t.Name)
	}
	sb.WriteByte('\n')
	for _, i := range order {
		fmt.Fprintf(&sb, "%-18s", inst.Objects[i].Name)
		for j := 0; j < l.M; j++ {
			if v := l.At(i, j); v > layout.Epsilon {
				fmt.Fprintf(&sb, " %8.1f%%", 100*v)
			} else {
				fmt.Fprintf(&sb, " %9s", ".")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
