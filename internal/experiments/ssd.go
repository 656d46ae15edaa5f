package experiments

import (
	"fmt"
	"math"
	"strings"

	"dblayout/internal/benchdb"
	"dblayout/internal/layout"
	"dblayout/internal/replay"
)

// SSDRow is one SSD-capacity configuration of paper Fig. 18, under OLAP8-63
// on four disks plus an SSD of the given capacity.
type SSDRow struct {
	CapacityGB int
	// SEE stripes everything over the four disks and the SSD.
	SEE float64
	// AllOnSSD places every object on the SSD (only when it fits, as in
	// the paper's table; NaN otherwise).
	AllOnSSD float64
	// Optimized is the advisor's layout.
	Optimized float64
}

// SSDCapacitiesGB are the paper's Fig. 18 SSD capacity points.
var SSDCapacitiesGB = []int{32, 10, 6, 4}

// SSDStudy runs the Sec. 6.4 disk+SSD heterogeneity study.
func SSDStudy(cfg *Config) ([]SSDRow, error) {
	var rows []SSDRow
	for _, capGB := range SSDCapacitiesGB {
		s, err := cfg.scenario(benchdb.OLAP863(), nil, append(fourDisks(), replay.SSD("ssd", int64(capGB)<<30))...)
		if err != nil {
			return nil, fmt.Errorf("experiments: ssd %dGB: %w", capGB, err)
		}
		row := SSDRow{CapacityGB: capGB, SEE: s.seeElapsed, AllOnSSD: math.NaN()}

		// All-objects-on-SSD baseline, where capacity permits (the
		// paper reports it for the 32 GB configuration only).
		if capGB == 32 {
			if row.AllOnSSD, err = s.elapsed(cfg, layout.AllOnOne(s.inst.N(), s.inst.M(), 4)); err != nil {
				return nil, err
			}
		}

		rec, err := cfg.advise(s.inst)
		if err != nil {
			return nil, fmt.Errorf("experiments: ssd %dGB advise: %w", capGB, err)
		}
		if row.Optimized, err = s.elapsed(cfg, rec.Final); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig18Table renders the paper's Fig. 18 rows.
func Fig18Table(rows []SSDRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %10s %14s %12s %9s\n", "SSD Cap", "SEE (s)", "All on SSD", "Opt (s)", "Speedup")
	for _, r := range rows {
		all := "n/a"
		if !math.IsNaN(r.AllOnSSD) {
			all = fmt.Sprintf("%.0f", r.AllOnSSD)
		}
		fmt.Fprintf(&sb, "%4d GB  %10.0f %14s %12.0f %9s\n",
			r.CapacityGB, r.SEE, all, r.Optimized, speedup(r.SEE, r.Optimized))
	}
	return sb.String()
}
