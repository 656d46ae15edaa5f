package experiments

import (
	"fmt"
	"math"
	"strings"

	"dblayout/internal/benchdb"
	"dblayout/internal/layout"
	"dblayout/internal/replay"
)

// HeteroRow is one storage-target configuration of paper Fig. 17, with the
// elapsed OLAP8-63 times of every applicable layout.
type HeteroRow struct {
	Config string
	// SEE is the stripe-everything-everywhere baseline.
	SEE float64
	// IsolateTables places the TPC-H tables on the large target and the
	// rest on the small one (3-1 config only; NaN otherwise).
	IsolateTables float64
	// IsolateTablesIndexes isolates tables on the large target, indexes
	// and temp space on the two small ones (2-1-1 only; NaN otherwise).
	IsolateTablesIndexes float64
	// Optimized is the advisor's layout.
	Optimized float64
}

// Heterogeneous runs the Sec. 6.4 disk-only heterogeneity study: the four
// 18.4 GB disks regrouped by the RAID controller into "3-1" and "2-1-1"
// configurations, plus the homogeneous "1-1-1-1" reference, all under
// OLAP8-63.
func Heterogeneous(cfg *Config) ([]HeteroRow, error) {
	configs := []struct {
		name    string
		devices []replay.DeviceSpec
		// iso is the config's kind-isolation baseline, if any, and col
		// the row column its replay fills.
		iso *layout.KindAssignment
		col func(*HeteroRow) *float64
	}{
		// Tables on the 3-disk RAID0, everything else on the remaining
		// disk.
		{"3-1", []replay.DeviceSpec{replay.RAID0Disks("raid3", 3), replay.Disk15K("disk3")},
			&layout.KindAssignment{ByKind: map[layout.ObjectKind][]int{layout.KindTable: {0}}, Default: []int{1}},
			func(r *HeteroRow) *float64 { return &r.IsolateTables }},
		// Tables on the 2-disk RAID0, indexes on one single disk,
		// temporary space on the other.
		{"2-1-1", []replay.DeviceSpec{replay.RAID0Disks("raid2", 2), replay.Disk15K("disk2"), replay.Disk15K("disk3")},
			&layout.KindAssignment{
				ByKind:  map[layout.ObjectKind][]int{layout.KindTable: {0}, layout.KindIndex: {1}, layout.KindTemp: {2}},
				Default: []int{2},
			},
			func(r *HeteroRow) *float64 { return &r.IsolateTablesIndexes }},
		{"1-1-1-1", fourDisks(), nil, nil},
	}

	var rows []HeteroRow
	for _, c := range configs {
		s, err := cfg.scenario(benchdb.OLAP863(), nil, c.devices...)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", c.name, err)
		}
		row := HeteroRow{Config: c.name, SEE: s.seeElapsed, IsolateTables: math.NaN(), IsolateTablesIndexes: math.NaN()}
		if c.iso != nil {
			iso, err := layout.ByKind(s.inst, *c.iso)
			if err != nil {
				return nil, err
			}
			if *c.col(&row), err = s.elapsed(cfg, iso); err != nil {
				return nil, err
			}
		}
		rec, err := cfg.advise(s.inst)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s advise: %w", c.name, err)
		}
		if row.Optimized, err = s.elapsed(cfg, rec.Final); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig17Table renders the paper's Fig. 17 rows.
func Fig17Table(rows []HeteroRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %10s %14s %20s %10s %9s\n",
		"Config", "SEE (s)", "iso tables", "iso tables+idx", "Opt (s)", "Speedup")
	na := func(v float64) string {
		if math.IsNaN(v) {
			return "n/a"
		}
		return fmt.Sprintf("%.0f", v)
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %10.0f %14s %20s %10.0f %9s\n",
			r.Config, r.SEE, na(r.IsolateTables), na(r.IsolateTablesIndexes),
			r.Optimized, speedup(r.SEE, r.Optimized))
	}
	return sb.String()
}
