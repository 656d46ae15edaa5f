package experiments

import (
	"fmt"
	"strings"
	"time"

	"dblayout/internal/autoadmin"
	"dblayout/internal/benchdb"
	"dblayout/internal/layout"
)

// AutoAdminResult backs the Sec. 6.6 comparison (paper Fig. 20 and the
// surrounding discussion): the AutoAdmin layout technique vs. this paper's
// advisor on OLAP1-63 and OLAP8-63 over four identical disks.
type AutoAdminResult struct {
	// AALayout is the AutoAdmin-recommended layout. AutoAdmin consumes
	// the SQL workload, which is identical for OLAP1-63 and OLAP8-63, so
	// a single layout serves both — the concurrency-obliviousness the
	// paper calls out.
	AALayout *layout.Layout
	// Instance163/Instance863 are the advisor instances (fitted
	// workloads) used for reporting.
	Instance163 *layout.Instance
	// Elapsed[workload][layout] in seconds.
	SEE163, AA163, Ours163 float64
	SEE863, AA863, Ours863 float64
	// AATime and OursTime compare advisor running times.
	AATime, OursTime time.Duration
}

// AutoAdminStudy reproduces the Sec. 6.6 comparison. The cardinality
// estimation error the paper observed (PostgreSQL misestimating Q18's
// intermediate result sizes by orders of magnitude) is injected as a volume
// multiplier on the temporary tablespace.
func AutoAdminStudy(cfg *Config) (*AutoAdminResult, error) {
	s163, err := cfg.scenario(benchdb.OLAP163(), nil, fourDisks()...)
	if err != nil {
		return nil, err
	}
	inst, catalog := s163.inst, s163.olap.Catalog
	res := &AutoAdminResult{Instance163: inst}

	// AutoAdmin input: the SQL statements with optimizer-estimated I/O
	// volumes. Each distinct query appears once (frequency is uniform).
	queries, err := benchdb.AutoAdminQueries(catalog, benchdb.TPCHQueries(), 0)
	if err != nil {
		return nil, err
	}
	mult := make([]float64, inst.N())
	for i := range mult {
		mult[i] = 1
	}
	if ti := catalog.Index(benchdb.TempSpace); ti >= 0 {
		mult[ti] = 25 // Q18 cardinality misestimate: temp volume inflated
	}
	start := time.Now()
	aa, err := autoadmin.Recommend(queries, inst.N(), inst.M(), autoadmin.Config{
		Sizes:             inst.Sizes(),
		Capacities:        inst.Capacities(),
		VolumeMultipliers: mult,
	})
	res.AATime = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("experiments: autoadmin: %w", err)
	}
	res.AALayout = aa

	// Per workload: SEE (traced for fitting), AutoAdmin, ours. OLAP8-63
	// runs the same SQL at a different concurrency, so AutoAdmin reuses
	// its layout while our advisor refits from the concurrent trace.
	for i, w := range []struct {
		w             *benchdb.OLAPWorkload
		see, aa, ours *float64
	}{
		{benchdb.OLAP163(), &res.SEE163, &res.AA163, &res.Ours163},
		{benchdb.OLAP863(), &res.SEE863, &res.AA863, &res.Ours863},
	} {
		s, err := cfg.scenario(w.w, nil, fourDisks()...)
		if err != nil {
			return nil, err
		}
		*w.see = s.seeElapsed
		if *w.aa, err = s.elapsed(cfg, aa); err != nil {
			return nil, err
		}
		start := time.Now()
		rec, err := cfg.advise(s.inst)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			res.OursTime = time.Since(start)
		}
		if *w.ours, err = s.elapsed(cfg, rec.Final); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Fig20Table renders the comparison (layout plus elapsed times).
func (r *AutoAdminResult) Fig20Table() string {
	var sb strings.Builder
	sb.WriteString("AutoAdmin layout (OLAP1-63 and OLAP8-63):\n")
	sb.WriteString(LayoutTable(r.Instance163, r.AALayout, 8))
	fmt.Fprintf(&sb, "\n%-10s %10s %12s %12s\n", "Workload", "SEE (s)", "AutoAdmin", "This paper")
	fmt.Fprintf(&sb, "%-10s %10.0f %12.0f %12.0f\n", "OLAP1-63", r.SEE163, r.AA163, r.Ours163)
	fmt.Fprintf(&sb, "%-10s %10.0f %12.0f %12.0f\n", "OLAP8-63", r.SEE863, r.AA863, r.Ours863)
	fmt.Fprintf(&sb, "\nadvisor time: AutoAdmin %.2fs, this paper %.2fs\n",
		r.AATime.Seconds(), r.OursTime.Seconds())
	return sb.String()
}
