package experiments

import (
	"fmt"
	"strings"
	"time"

	"dblayout/internal/benchdb"
	"dblayout/internal/layout"
	"dblayout/internal/rome"
)

// TimingRow is one problem-size point of paper Fig. 19: advisor running time
// split into solver and regularization. Each row is one whole advise, two
// starts with two solve/regularize rounds each, and Solve and Regular add
// up all four rounds.
type TimingRow struct {
	Workload string
	N, M     int
	Solve    time.Duration
	Regular  time.Duration
	Total    time.Duration
}

// Timing measures the layout advisor's running time across the paper's
// Fig. 19 problem sizes: OLAP8-63 (N=20, M=4), the consolidation workload
// (N=40, M=4..40), and replicated consolidation workloads (N=80..160,
// M=10).
func Timing(cfg *Config) ([]TimingRow, error) {
	olap, err := cfg.scenario(benchdb.OLAP863(), nil, fourDisks()...)
	if err != nil {
		return nil, err
	}
	cons, err := cfg.scenario(benchdb.OLAP121(), benchdb.OLTP(), fourDisks()...)
	if err != nil {
		return nil, err
	}
	consSet, consObjects := cons.inst.Workloads, cons.inst.Objects

	type point struct {
		name string
		set  *rome.Set
		objs []layout.Object
		m    int
	}
	points := []point{
		{"OLAP8-63", olap.inst.Workloads, olap.inst.Objects, 4},
		{"consolidation", consSet, consObjects, 4},
		{"consolidation", consSet, consObjects, 10},
		{"consolidation", consSet, consObjects, 20},
		{"consolidation", consSet, consObjects, 40},
		{"2xconsolidation", consSet.Replicate(2), replicateObjects(consObjects, 2), 10},
		{"3xconsolidation", consSet.Replicate(3), replicateObjects(consObjects, 3), 10},
		{"4xconsolidation", consSet.Replicate(4), replicateObjects(consObjects, 4), 10},
	}
	if cfg.Quick {
		points = points[:3]
	}

	var rows []TimingRow
	for _, p := range points {
		targets := make([]*layout.Target, p.m)
		for j := range targets {
			targets[j] = &layout.Target{
				Name: fmt.Sprintf("disk%d", j),
				// Plain 18.4 GB disks hold the base problems; the
				// replicated ones need roomier (but identically
				// modelled) targets, as the paper's synthetic
				// scaling implies.
				Capacity: 64 << 30,
				Model:    cons.inst.Targets[0].Model,
			}
		}
		inst := &layout.Instance{Objects: p.objs, Targets: targets, Workloads: p.set}
		if err := inst.Validate(); err != nil {
			return nil, err
		}
		rec, err := cfg.advise(inst)
		if err != nil {
			return nil, fmt.Errorf("experiments: timing %s N=%d M=%d: %w", p.name, len(p.objs), p.m, err)
		}
		rows = append(rows, TimingRow{
			Workload: p.name,
			N:        len(p.objs),
			M:        p.m,
			Solve:    rec.SolveTime,
			Regular:  rec.RegularizeTime,
			Total:    rec.SolveTime + rec.RegularizeTime,
		})
	}
	return rows, nil
}

// replicateObjects mirrors rome.Set.Replicate's naming for object lists.
func replicateObjects(objs []layout.Object, n int) []layout.Object {
	out := make([]layout.Object, 0, len(objs)*n)
	for rep := 0; rep < n; rep++ {
		for _, o := range objs {
			c := o
			if rep > 0 {
				c.Name = fmt.Sprintf("%s#%d", o.Name, rep+1)
			}
			out = append(out, c)
		}
	}
	return out
}

// Fig19Table renders the paper's Fig. 19 rows.
func Fig19Table(rows []TimingRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %5s %5s %10s %14s %10s\n", "Workload", "N", "M", "Solver", "Regularization", "TOTAL")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %5d %5d %9.2fs %13.2fs %9.2fs\n",
			r.Workload, r.N, r.M, r.Solve.Seconds(), r.Regular.Seconds(), r.Total.Seconds())
	}
	return sb.String()
}
