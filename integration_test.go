package dblayout_test

import (
	"testing"

	"dblayout"
	"dblayout/internal/benchdb"
	"dblayout/internal/experiments"
	"dblayout/internal/layouttest"
)

// TestPipelineDeterminism runs the full experiment pipeline (replay, trace
// fitting, calibration, advising, replay of the recommendation) twice and
// requires bit-identical results: reproducibility is a core requirement for
// a benchmark harness. A third run, on a Config whose earlier studies already
// traced both systems, must match them too.
func TestPipelineDeterminism(t *testing.T) {
	run := func(cfg *experiments.Config) []float64 {
		runs, err := experiments.Homogeneous(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, r := range runs {
			out = append(out, r.SEEElapsed, r.OptElapsed, r.Rec.FinalObjective)
		}
		return out
	}
	shared := experiments.NewQuickConfig()
	if _, err := experiments.Ablation(shared); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.AutoAdminStudy(shared); err != nil {
		t.Fatal(err)
	}
	a := run(experiments.NewQuickConfig())
	for _, b := range [][]float64{run(experiments.NewQuickConfig()), run(shared)} {
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("pipeline not deterministic at %d: %v vs %v", i, a, b)
			}
		}
	}
}

// TestRecommendationNeverPredictedWorseThanSEE checks the multi-start
// guarantee across a spread of problem shapes: whatever the instance, the
// advisor's final layout is never predicted worse than SEE when SEE is
// feasible.
func TestRecommendationNeverPredictedWorseThanSEE(t *testing.T) {
	for _, m := range []int{2, 3, 4, 6} {
		inst := layouttest.Instance(m)
		p := dblayout.Problem{Objects: inst.Objects, Targets: inst.Targets, Workloads: inst.Workloads}
		rec, err := dblayout.Recommend(p, dblayout.Options{Seed: int64(m)})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		utils, err := dblayout.Utilizations(p, dblayout.SEE(len(p.Objects), m))
		if err != nil {
			t.Fatal(err)
		}
		see := 0.0
		for _, u := range utils {
			if u > see {
				see = u
			}
		}
		if rec.FinalObjective > see*(1+1e-9) {
			t.Errorf("m=%d: final %.4f worse than SEE %.4f", m, rec.FinalObjective, see)
		}
	}
}

// TestWorkloadCatalogConsistency cross-checks the benchdb specifications
// against the replay engine: every query must be executable on the
// homogeneous system without touching unknown objects or violating stripe
// alignment.
func TestWorkloadCatalogConsistency(t *testing.T) {
	for _, w := range []*benchdb.OLAPWorkload{benchdb.OLAP121(), benchdb.OLAP163(), benchdb.OLAP863()} {
		if err := benchdb.ValidateQueries(w.Catalog, w.Queries); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		for _, q := range w.Queries {
			for _, p := range q.Phases {
				for _, s := range p.Streams {
					size := s.ReqSize
					if size == 0 {
						continue
					}
					if (128<<10)%size != 0 {
						t.Errorf("%s/%s: request size %d does not divide the stripe", w.Name, q.Name, size)
					}
				}
			}
		}
	}
}
