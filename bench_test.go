// Benchmarks regenerating the paper's tables and figures (one per
// figure/table, named BenchmarkFigNN_*), plus ablation benchmarks for the
// design choices called out in DESIGN.md. The experiment benchmarks run the
// reduced-scale pipeline so `go test -bench=.` stays tractable; the
// paper-scale numbers are produced by cmd/experiments and recorded in
// EXPERIMENTS.md. Reproduced quantities (speedups, objective values) are
// attached to each benchmark via ReportMetric.
package dblayout_test

import (
	"context"
	"fmt"
	"testing"

	"dblayout/internal/autoadmin"
	"dblayout/internal/benchdb"
	"dblayout/internal/core"
	"dblayout/internal/costmodel"
	"dblayout/internal/experiments"
	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
	"dblayout/internal/nlp"
	"dblayout/internal/storage"
)

// BenchmarkFig01_OLAP163Layout measures the advisor producing the paper's
// Fig. 1 layout (OLAP1-63 on four identical disks), excluding the trace and
// calibration setup.
func BenchmarkFig01_OLAP163Layout(b *testing.B) {
	inst := layouttest.Instance(4)
	heuristic, err := layout.InitialLayout(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv, err := core.New(inst, core.Options{
			NLP:            nlp.Options{Seed: 1},
			InitialLayouts: []*layout.Layout{heuristic, layout.SEE(inst.N(), inst.M())},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := adv.Recommend(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig08_CostModelSlice measures the calibration that produces the
// Fig. 8 cost-model slice.
func BenchmarkFig08_CostModelSlice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.NewQuickConfig()
		if _, err := experiments.Fig8CostSlice(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11_Homogeneous runs the homogeneous-target study (trace, fit,
// calibrate, advise, replay) and reports the reproduced speedups.
func BenchmarkFig11_Homogeneous(b *testing.B) {
	var runs []*experiments.WorkloadRun
	for i := 0; i < b.N; i++ {
		var err error
		runs, err = experiments.Homogeneous(experiments.NewQuickConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range runs {
		b.ReportMetric(r.SEEElapsed/r.OptElapsed, r.Workload+"-speedup")
	}
}

// BenchmarkFig13_UtilizationStages measures the utilization predictions for
// the four advisor stages the figure reports.
func BenchmarkFig13_UtilizationStages(b *testing.B) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	see := layout.SEE(inst.N(), inst.M())
	init, _ := layout.InitialLayout(inst)
	adv, _ := core.New(inst, core.Options{NLP: nlp.Options{Seed: 1}})
	rec, err := adv.Recommend()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range []*layout.Layout{see, init, rec.Solver, rec.Final} {
			ev.Utilizations(l)
		}
	}
}

// BenchmarkFig15_Consolidation runs the consolidation scenario and reports
// the OLAP speedup and OLTP ratio.
func BenchmarkFig15_Consolidation(b *testing.B) {
	var res *experiments.ConsolidationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Consolidation(experiments.NewQuickConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SEEOLAP/res.OptOLAP, "olap-speedup")
	b.ReportMetric(res.OptTpmC/res.SEETpmC, "tpmc-ratio")
}

// BenchmarkFig17_Heterogeneous runs the disk-heterogeneity study.
func BenchmarkFig17_Heterogeneous(b *testing.B) {
	var rows []experiments.HeteroRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Heterogeneous(experiments.NewQuickConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.SEE/r.Optimized, r.Config+"-speedup")
	}
}

// BenchmarkFig18_SSDCapacitySweep runs the disks-plus-SSD study.
func BenchmarkFig18_SSDCapacitySweep(b *testing.B) {
	var rows []experiments.SSDRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.SSDStudy(experiments.NewQuickConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.SEE/r.Optimized, fmt.Sprintf("ssd%dGB-speedup", r.CapacityGB))
	}
}

// BenchmarkFig19_Advisor measures advisor running time across the paper's
// problem sizes (the quantity Fig. 19 tabulates), on synthetic instances of
// the same shapes. Its solve-s and regularize-s metrics are the whole
// advise's totals over both solve/regularize rounds.
func BenchmarkFig19_Advisor(b *testing.B) {
	shapes := []struct{ reps, m int }{
		{5, 4},   // N=20, M=4   (OLAP8-63 scale)
		{10, 4},  // N=40, M=4   (consolidation)
		{10, 10}, // N=40, M=10
		{20, 10}, // N=80, M=10  (2x consolidation)
		{40, 10}, // N=160, M=10 (4x consolidation)
	}
	for _, s := range shapes {
		inst := layouttest.Replicated(s.reps, s.m)
		b.Run(fmt.Sprintf("N%dM%d", inst.N(), s.m), func(b *testing.B) {
			heuristic, err := layout.InitialLayout(inst)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				adv, err := core.New(inst, core.Options{
					NLP:            nlp.Options{Seed: 1},
					InitialLayouts: []*layout.Layout{heuristic},
				})
				if err != nil {
					b.Fatal(err)
				}
				rec, err := adv.Recommend()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rec.SolveTime.Seconds(), "solve-s")
				b.ReportMetric(rec.RegularizeTime.Seconds(), "regularize-s")
			}
		})
	}
}

// BenchmarkFig20_AutoAdmin measures the AutoAdmin baseline's layout time,
// which the paper compares against its own advisor's.
func BenchmarkFig20_AutoAdmin(b *testing.B) {
	catalog := benchdb.TPCH()
	queries, err := benchdb.AutoAdminQueries(catalog, benchdb.TPCHQueries(), 0)
	if err != nil {
		b.Fatal(err)
	}
	sizes := make([]int64, len(catalog.Objects))
	for i, o := range catalog.Objects {
		sizes[i] = o.Size
	}
	caps := []int64{18 << 30, 18 << 30, 18 << 30, 18 << 30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := autoadmin.Recommend(queries, len(sizes), 4, autoadmin.Config{
			Sizes: sizes, Capacities: caps,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks for DESIGN.md's starred design choices. ---

// BenchmarkAblation_Solver compares the three solver strategies on the same
// instance, reporting the objective each reaches.
func BenchmarkAblation_Solver(b *testing.B) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	init, _ := layout.InitialLayout(inst)
	for _, tc := range []struct {
		name string
		run  func() nlp.Result
	}{
		{"transfer", func() nlp.Result {
			return nlp.TransferSearch(context.Background(), ev, inst, init, nlp.Options{Seed: 1})
		}},
		{"projected-gradient", func() nlp.Result {
			return nlp.ProjectedGradient(context.Background(), ev, inst, init, nlp.Options{MaxIters: 60})
		}},
		{"anneal", func() nlp.Result {
			return nlp.Anneal(context.Background(), ev, inst, init, nlp.Options{Seed: 1, MaxIters: 4000})
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var res nlp.Result
			for i := 0; i < b.N; i++ {
				res = tc.run()
			}
			b.ReportMetric(res.Objective, "objective")
			b.ReportMetric(float64(res.Evals), "evals")
		})
	}
}

// BenchmarkAblation_InitialLayout compares starting the solver from the
// Sec. 4.2 heuristic vs. from SEE (the paper found SEE a sticky local
// minimum).
func BenchmarkAblation_InitialLayout(b *testing.B) {
	inst := layouttest.Instance(4)
	ev := layout.NewEvaluator(inst)
	heuristic, _ := layout.InitialLayout(inst)
	see := layout.SEE(inst.N(), inst.M())
	for _, tc := range []struct {
		name string
		init *layout.Layout
	}{{"heuristic", heuristic}, {"see", see}} {
		b.Run(tc.name, func(b *testing.B) {
			var res nlp.Result
			for i := 0; i < b.N; i++ {
				res = nlp.TransferSearch(context.Background(), ev, inst, tc.init, nlp.Options{Seed: 1, Restarts: 0})
			}
			b.ReportMetric(res.Objective, "objective")
		})
	}
}

// BenchmarkAblation_Regularization compares regularization alone against
// regularization plus the polish pass, reporting the final objectives.
func BenchmarkAblation_Regularization(b *testing.B) {
	inst := layouttest.Instance(4)
	for _, tc := range []struct {
		name string
		opt  core.Options
	}{
		{"greedy-only", core.Options{NLP: nlp.Options{Seed: 1}, SkipPolish: true, Rounds: 1}},
		{"with-polish", core.Options{NLP: nlp.Options{Seed: 1}, Rounds: 1}},
		{"polish+rounds", core.Options{NLP: nlp.Options{Seed: 1}}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var obj float64
			for i := 0; i < b.N; i++ {
				adv, err := core.New(inst, tc.opt)
				if err != nil {
					b.Fatal(err)
				}
				rec, err := adv.Recommend()
				if err != nil {
					b.Fatal(err)
				}
				obj = rec.FinalObjective
			}
			b.ReportMetric(obj, "objective")
		})
	}
}

// BenchmarkCalibration measures the cost of building one device cost model
// with the full calibration grid.
func BenchmarkCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		costmodel.Calibrate("disk15k", func(e *storage.Engine) storage.Device {
			return storage.NewDisk(e, "d", storage.Disk15KConfig())
		}, costmodel.FastGrid())
	}
}

// BenchmarkReplayOLAP measures the storage simulator replaying one pass of
// the TPC-H query set under SEE.
func BenchmarkReplayOLAP(b *testing.B) {
	w := benchdb.OLAP121()
	sys := fourDiskSystem(w.Catalog.Objects)
	see := layout.SEE(len(sys.Objects), len(sys.Devices))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := replayRun(sys, see, w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res), "requests")
	}
}
