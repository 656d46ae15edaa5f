package experiments

import (
	"fmt"
	"strings"

	"dblayout/internal/benchdb"
	"dblayout/internal/core"
	"dblayout/internal/layout"
)

// ConsolidationResult backs paper Figs. 15 and 16: two database instances
// (TPC-H running OLAP1-21 and TPC-C running the OLTP workload) consolidated
// onto the same four disks.
type ConsolidationResult struct {
	// SEEOLAP/OptOLAP are OLAP1-21 completion times (seconds).
	SEEOLAP, OptOLAP float64
	// SEETpmC/OptTpmC are the TPC-C New-Order rates.
	SEETpmC, OptTpmC float64
	Rec              *core.Recommendation
	Instance         *layout.Instance
}

// consolidatedWarmup is the tpmC warm-up exclusion (the paper used 1600 s on
// its much slower testbed; scaled to this simulator's run lengths).
const consolidatedWarmup = 120.0

// Consolidation runs the Sec. 6.3 consolidation study: 40 objects from two
// databases laid out together on four identical disks.
func Consolidation(cfg *Config) (*ConsolidationResult, error) {
	s, err := cfg.scenario(benchdb.OLAP121(), benchdb.OLTP(), fourDisks()...)
	if err != nil {
		return nil, err
	}
	rec, err := cfg.advise(s.inst)
	if err != nil {
		return nil, err
	}
	optOLAP, optOLTP, err := s.run(cfg, s.sys, rec.Final, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: consolidation optimized: %w", err)
	}
	return &ConsolidationResult{
		SEEOLAP:  s.seeElapsed,
		OptOLAP:  optOLAP.Elapsed,
		SEETpmC:  s.seeTpmC,
		OptTpmC:  optOLTP.TpmC,
		Rec:      rec,
		Instance: s.inst,
	}, nil
}

// Fig15Table renders the paper's Fig. 15 rows.
func (r *ConsolidationResult) Fig15Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %16s %16s %14s\n", "Workload", "SEE Baseline", "Optimized", "Improvement")
	fmt.Fprintf(&sb, "%-10s %11.0f sec. %11.0f sec. %14s\n", "OLAP1-21", r.SEEOLAP, r.OptOLAP, speedup(r.SEEOLAP, r.OptOLAP))
	fmt.Fprintf(&sb, "%-10s %11.0f tpmC %11.0f tpmC %14s\n", "OLTP", r.SEETpmC, r.OptTpmC, speedup(r.OptTpmC, r.SEETpmC))
	return sb.String()
}

// Fig16Table renders the recommended consolidated layout for the 12 most
// heavily requested objects (paper Fig. 16).
func (r *ConsolidationResult) Fig16Table() string {
	return LayoutTable(r.Instance, r.Rec.Final, 12)
}
