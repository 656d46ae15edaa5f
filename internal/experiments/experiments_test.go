package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// The quick tests exercise every experiment's full pipeline (trace, fit,
// calibrate, advise, replay) at reduced scale so the suite stays fast. The
// paper-scale runs live in full_test.go and are skipped with -short.

// quick is the Config the quick tests share, so they calibrate each model
// and trace each study system once.
var quick = NewQuickConfig()

func TestQuickHomogeneous(t *testing.T) {
	runs, err := Homogeneous(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d workload runs, want 2", len(runs))
	}
	for _, r := range runs {
		if r.SEEElapsed <= 0 || r.OptElapsed <= 0 {
			t.Fatalf("%s: degenerate elapsed times %g/%g", r.Workload, r.SEEElapsed, r.OptElapsed)
		}
		// The advisor must never produce a layout predicted worse than
		// its own starting points, and the replayed recommendation
		// should not catastrophically regress against SEE.
		if r.OptElapsed > 1.15*r.SEEElapsed {
			t.Errorf("%s: optimized %.0f s ≫ SEE %.0f s", r.Workload, r.OptElapsed, r.SEEElapsed)
		}
		if !r.Rec.Final.IsRegular() {
			t.Errorf("%s: final layout not regular", r.Workload)
		}
		if len(r.SEEUtil) != 4 || len(r.RegularUtil) != 4 {
			t.Errorf("%s: wrong utilization vector lengths", r.Workload)
		}
	}
	tbl := Fig11Table(runs)
	if !strings.Contains(tbl, "OLAP1-63") || !strings.Contains(tbl, "Speedup") {
		t.Errorf("Fig11Table missing content:\n%s", tbl)
	}
	if s := Fig13Table(runs[0]); !strings.Contains(s, "Solver") {
		t.Errorf("Fig13Table missing content:\n%s", s)
	}
	if s := LayoutTable(runs[0].Instance, runs[0].Rec.Final, 5); !strings.Contains(s, "%") {
		t.Errorf("LayoutTable missing content:\n%s", s)
	}
}

func TestQuickConsolidation(t *testing.T) {
	res, err := Consolidation(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.SEEOLAP <= 0 || res.SEETpmC <= 0 {
		t.Fatalf("degenerate SEE results: %+v", res)
	}
	if res.OptOLAP <= 0 || res.OptTpmC <= 0 {
		t.Fatalf("degenerate optimized results: %+v", res)
	}
	if !strings.Contains(res.Fig15Table(), "tpmC") {
		t.Error("Fig15Table missing tpmC row")
	}
	if !strings.Contains(res.Fig16Table(), "STOCK") {
		t.Error("Fig16Table missing TPC-C objects")
	}
}

func TestQuickHeterogeneous(t *testing.T) {
	rows, err := Heterogeneous(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d configs, want 3", len(rows))
	}
	byName := map[string]HeteroRow{}
	for _, r := range rows {
		byName[r.Config] = r
		if r.SEE <= 0 || r.Optimized <= 0 {
			t.Fatalf("%s: degenerate times", r.Config)
		}
	}
	if math.IsNaN(byName["3-1"].IsolateTables) {
		t.Error("3-1 missing isolate-tables baseline")
	}
	if math.IsNaN(byName["2-1-1"].IsolateTablesIndexes) {
		t.Error("2-1-1 missing isolate-tables+indexes baseline")
	}
	if !math.IsNaN(byName["1-1-1-1"].IsolateTables) {
		t.Error("1-1-1-1 should not have an isolate baseline")
	}
	if !strings.Contains(Fig17Table(rows), "n/a") {
		t.Error("Fig17Table should render n/a entries")
	}
}

func TestQuickSSD(t *testing.T) {
	rows, err := SSDStudy(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(SSDCapacitiesGB) {
		t.Fatalf("got %d rows, want %d", len(rows), len(SSDCapacitiesGB))
	}
	for _, r := range rows {
		if r.SEE <= 0 || r.Optimized <= 0 {
			t.Fatalf("%d GB: degenerate times", r.CapacityGB)
		}
		if r.CapacityGB == 32 && math.IsNaN(r.AllOnSSD) {
			t.Error("32 GB row should have the all-on-SSD baseline")
		}
		if r.CapacityGB == 4 && !math.IsNaN(r.AllOnSSD) {
			t.Error("4 GB row cannot hold all objects on the SSD")
		}
	}
	// The SSD helps: at 32 GB the optimized layout must beat disk-only
	// style SEE striping clearly even at quick scale.
	if rows[0].Optimized >= rows[0].SEE {
		t.Errorf("32 GB: optimized %.0f not better than SEE %.0f", rows[0].Optimized, rows[0].SEE)
	}
}

func TestQuickTiming(t *testing.T) {
	rows, err := Timing(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("got %d timing rows", len(rows))
	}
	if rows[0].N != 20 || rows[0].M != 4 {
		t.Errorf("first row should be OLAP8-63 N=20 M=4, got N=%d M=%d", rows[0].N, rows[0].M)
	}
	for _, r := range rows {
		if r.Total < r.Solve || r.Total < r.Regular {
			t.Errorf("%s: inconsistent timing decomposition", r.Workload)
		}
	}
	if !strings.Contains(Fig19Table(rows), "consolidation") {
		t.Error("Fig19Table missing consolidation rows")
	}
}

func TestQuickAutoAdmin(t *testing.T) {
	res, err := AutoAdminStudy(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.AALayout == nil || !res.AALayout.IsRegular() {
		t.Fatal("AutoAdmin layout missing or non-regular")
	}
	for _, v := range []float64{res.SEE163, res.AA163, res.Ours163, res.SEE863, res.AA863, res.Ours863} {
		if v <= 0 {
			t.Fatalf("degenerate elapsed times: %+v", res)
		}
	}
	if !strings.Contains(res.Fig20Table(), "AutoAdmin") {
		t.Error("Fig20Table missing content")
	}
}

func TestQuickMigration(t *testing.T) {
	res, err := Migration(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves <= 0 || res.Steps < res.Moves {
		t.Fatalf("degenerate script: %d moves, %d steps", res.Moves, res.Steps)
	}
	if len(res.Scenarios) != len(migrationRates) {
		t.Fatalf("got %d scenarios, want %d", len(res.Scenarios), len(migrationRates))
	}
	copied := res.Scenarios[0].CopiedMiB
	for _, s := range res.Scenarios {
		if s.Elapsed <= 0 || s.MigrationElapsed <= 0 {
			t.Fatalf("%s: degenerate times %+v", s.Name, s)
		}
		if s.CopiedMiB != copied {
			t.Errorf("%s: copied %.1f MiB, others copied %.1f (throttle must not change the payload)",
				s.Name, s.CopiedMiB, copied)
		}
		if s.RateMiB > 0 && s.EffectiveMiB > s.RateMiB*1.05 {
			t.Errorf("%s: effective rate %.1f MiB/s exceeds the throttle", s.Name, s.EffectiveMiB)
		}
	}
	// A tighter throttle must stretch the copy.
	last := res.Scenarios[len(res.Scenarios)-1]
	if last.MigrationElapsed <= res.Scenarios[0].MigrationElapsed {
		t.Errorf("throttled copy (%.0fs) not slower than unthrottled (%.0fs)",
			last.MigrationElapsed, res.Scenarios[0].MigrationElapsed)
	}
	// The fault scenario must have aborted partway and evacuated the
	// dead disk by reconstruction.
	if res.FaultCommitted >= res.FaultSteps {
		t.Errorf("fault came too late: %d/%d steps committed", res.FaultCommitted, res.FaultSteps)
	}
	if res.RepairMoves == 0 || res.ReconstructedMiB <= 0 {
		t.Errorf("evacuation did not reconstruct: %d moves, %.1f MiB", res.RepairMoves, res.ReconstructedMiB)
	}
	if !strings.Contains(MigrationTable(res), "reconstruction") {
		t.Error("MigrationTable missing content")
	}
}

func TestQuickFig8(t *testing.T) {
	series, err := Fig8CostSlice(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 {
		t.Fatal("no cost-slice series")
	}
	// Qualitative Fig. 8 shape on the calibrated model.
	spec := Fig8CostSliceModel(quick)
	if err := Fig8Check(spec); err != nil {
		t.Errorf("Fig. 8 shape violated: %v", err)
	}
	if !strings.Contains(Fig8Table(series), "chi") {
		t.Error("Fig8Table missing header")
	}
}

func TestQuickAblation(t *testing.T) {
	rows, err := Ablation(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("got %d ablation rows", len(rows))
	}
	if rows[0].Variant != "SEE baseline" {
		t.Fatalf("first row %q", rows[0].Variant)
	}
	for _, r := range rows {
		if r.Predicted <= 0 || r.Replayed <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
	// The default variant must be at least as good (predicted) as the
	// SEE-only start, and the portfolio, which starts from the heuristic
	// alone, at least as good as transfer from that start.
	var def, seeOnly, heuristicOnly, portfolio float64
	for _, r := range rows {
		switch r.Variant {
		case "transfer+multistart (default)":
			def = r.Predicted
		case "transfer, SEE init only":
			seeOnly = r.Predicted
		case "transfer, heuristic init only":
			heuristicOnly = r.Predicted
		case "solver portfolio":
			portfolio = r.Predicted
		}
	}
	if def > seeOnly*(1+1e-9) {
		t.Errorf("default %.4f worse than SEE-only start %.4f", def, seeOnly)
	}
	if portfolio > heuristicOnly {
		t.Errorf("solver portfolio %.4f worse than transfer from the same start %.4f", portfolio, heuristicOnly)
	}
	if !strings.Contains(AblationTable(rows), "Variant") {
		t.Error("AblationTable missing header")
	}
}

func TestQuickDrift(t *testing.T) {
	cfg := *quick
	var events bytes.Buffer
	cfg.DriftEvents = &events
	res, err := Drift(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SteadyEvents != 0 {
		t.Errorf("detector fired %d times during steady state, want 0", res.SteadyEvents)
	}
	if !res.Detected {
		t.Fatal("prediction-error drift not detected after the shift")
	}
	// The hysteresis needs Trigger=2 drifted windows, so latency is at
	// least 1; anything beyond a handful of windows means the signal is
	// too weak to be useful.
	if res.DetectionLatency < 1 || res.DetectionLatency > 6 {
		t.Errorf("detection latency %d windows, want 1..6", res.DetectionLatency)
	}
	if !res.OverlapDetected {
		t.Error("overlap-matrix drift not detected")
	}
	if res.OverlapDistance <= res.OverlapThreshold {
		t.Errorf("overlap distance %.3f not above threshold %.3f",
			res.OverlapDistance, res.OverlapThreshold)
	}
	if res.ShiftTime <= 0 || res.Elapsed <= res.ShiftTime {
		t.Errorf("degenerate times: shift %.2f, elapsed %.2f", res.ShiftTime, res.Elapsed)
	}
	if len(res.Events) == 0 {
		t.Error("no events recorded")
	}
	// Every fired event also landed on the JSONL stream.
	lines := strings.Count(strings.TrimRight(events.String(), "\n"), "\n") + 1
	if events.Len() == 0 || lines != len(res.Events) {
		t.Errorf("event stream has %d lines, want %d", lines, len(res.Events))
	}
	tbl := DriftTable(res)
	for _, want := range []string{"drift: diurnal OLTP->OLAP shift", "steady-state events: 0",
		"prediction-error drift detected", "overlap-matrix drift detected"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("DriftTable missing %q:\n%s", want, tbl)
		}
	}
}

// TestScenariosTracedOnce runs four studies on one fresh Config. Between
// them they use three systems, each traced once: OLAP1-63 and OLAP8-63 on
// four disks (Homogeneous, Ablation, AutoAdminStudy, Timing) and the
// consolidation (Timing).
func TestScenariosTracedOnce(t *testing.T) {
	cfg := NewQuickConfig()
	runs, err := Homogeneous(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Ablation(cfg); err != nil {
		t.Fatal(err)
	}
	aa, err := AutoAdminStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Timing(cfg); err != nil {
		t.Fatal(err)
	}
	if n := len(cfg.memo.scenarios); n != 3 {
		t.Errorf("traced %d systems, want 3", n)
	}
	if aa.Instance163 != runs[0].Instance {
		t.Error("AutoAdminStudy fitted OLAP1-63 again instead of reusing Homogeneous' instance")
	}
	if aa.SEE163 != runs[0].SEEElapsed || aa.SEE863 != runs[1].SEEElapsed {
		t.Errorf("SEE baselines differ: %v/%v against %v/%v",
			aa.SEE163, aa.SEE863, runs[0].SEEElapsed, runs[1].SEEElapsed)
	}
}

func TestQuickAutonomic(t *testing.T) {
	res, err := Autonomic(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.SteadyActions != 0 {
		t.Errorf("steady replay provoked %d controller actions, want 0", res.SteadyActions)
	}
	if !res.Detected {
		t.Fatal("controller never detected the shift")
	}
	if res.Epochs != 1 {
		t.Fatalf("controller completed %d migration epochs, want 1:\n%s", res.Epochs, AutonomicTable(res))
	}
	if res.MigratedBytes <= 0 || res.Gain <= 0 {
		t.Errorf("degenerate migration: %d bytes for gain %.4f", res.MigratedBytes, res.Gain)
	}
	if res.MigrateDoneTime <= res.MigrateStartTime || res.CooldownEnd <= res.MigrateDoneTime {
		t.Errorf("loop times out of order: start %.1f, done %.1f, cooldown end %.1f",
			res.MigrateStartTime, res.MigrateDoneTime, res.CooldownEnd)
	}
	if res.FinalDriftUtil >= res.InitialDriftUtil {
		t.Errorf("migration did not improve the night workload: %.3f -> %.3f",
			res.InitialDriftUtil, res.FinalDriftUtil)
	}
	if res.FinalPhase != "observing" {
		t.Errorf("controller ended in phase %s, want observing", res.FinalPhase)
	}
	if !res.JournalConsistent {
		t.Error("recovered journal does not reproduce the live controller state")
	}
	tbl := AutonomicTable(res)
	for _, want := range []string{"autonomic loop:", "detected in refit window",
		"recovery consistent with live state"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("AutonomicTable missing %q:\n%s", want, tbl)
		}
	}
}

func TestQuickChaos(t *testing.T) {
	rep, err := Chaos(quick, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 4 {
		t.Fatalf("campaign ran %d scenarios, want 4", len(rep.Scenarios))
	}
	if rep.Crashes == 0 || rep.Epochs == 0 {
		t.Errorf("campaign too tame: %d crashes, %d epochs", rep.Crashes, rep.Epochs)
	}
	if !strings.Contains(ChaosTable(rep), "all invariants held") {
		t.Error("ChaosTable missing summary line")
	}
}

func TestQuickFleet(t *testing.T) {
	rows, err := Fleet(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d fleet rows, want 1", len(rows))
	}
	for _, r := range rows {
		if r.N != 800 || r.M != 64 {
			t.Errorf("%s: quick mode ran %dx%d, want 800x64", r.Solver, r.N, r.M)
		}
		if r.Final <= 0 || r.Final > r.Initial {
			t.Errorf("%s: solve did not improve: initial %.3f -> final %.3f",
				r.Solver, r.Initial, r.Final)
		}
		if r.Iters == 0 || r.Evals == 0 {
			t.Errorf("%s: no solver effort reported (%d iters, %d evals)", r.Solver, r.Iters, r.Evals)
		}
	}
	tbl := FleetTable(rows)
	if !strings.Contains(tbl, "transfer+prune") {
		t.Errorf("FleetTable missing %q:\n%s", "transfer+prune", tbl)
	}
}
