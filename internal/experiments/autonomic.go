package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"

	"dblayout/internal/control"
	"dblayout/internal/core"
	"dblayout/internal/layout"
	"dblayout/internal/migrate"
	"dblayout/internal/nlp"
	"dblayout/internal/obs"
	"dblayout/internal/replay"
	"dblayout/internal/rubicon"
)

// AutonomicResult reports the end-to-end autonomic control-loop study: the
// diurnal drift scenario of the drift experiment, but closed-loop — the
// controller watches the window fits, detects the OLTP→OLAP shift, re-advises
// a layout for the night workload, migrates to it online, and settles back
// into steady observation. A second controller replays the steady prefix
// alone and must take zero actions.
type AutonomicResult struct {
	// WindowSize is the utilization window; RefitSize the rubicon refit
	// window the controller observes (both simulated s).
	WindowSize, RefitSize float64
	// ShiftTime is when the workload shifted (simulated s).
	ShiftTime float64
	// SteadyUtil / DriftUtil are the initial layout's max predicted
	// utilization under the steady and drifted window fits — the
	// separation the UtilThreshold midpoint is calibrated into.
	SteadyUtil, DriftUtil           float64
	UtilThreshold, OverlapThreshold float64
	// Fits is the monitored run's refit-window count; SteadyFits the
	// steady prefix's.
	Fits, SteadyFits int
	// SteadyActions counts controller actions during the steady-prefix
	// replay (must be 0: a quiet workload provokes nothing).
	SteadyActions int
	// Detected reports the monitored controller saw the shift;
	// DetectWindow/DetectSignal locate the first detection.
	Detected     bool
	DetectWindow int64
	DetectSignal string
	// Epochs counts completed migrations; the times trace the loop:
	// detect → migrate-start → migrate-done → cooldown-end.
	Epochs                                         int
	MigrateStartTime, MigrateDoneTime, CooldownEnd float64
	// Gain is the predicted max-utilization gain the controller migrated
	// for; MigratedBytes what the plan moved.
	Gain          float64
	MigratedBytes int64
	// Skips counts gated detections (re-advises that did not migrate).
	Skips int
	// ExtensionWindows is how many synthetic post-trace windows were fed
	// before the loop returned to observing (migration + cooldown time).
	ExtensionWindows int
	// InitialDriftUtil / FinalDriftUtil are the predicted max utilization
	// of the pre-migration and post-migration layouts under the last
	// drifted fit — the realized benefit.
	InitialDriftUtil, FinalDriftUtil float64
	// FinalPhase is the controller's phase after the run ("observing" on
	// success); JournalBytes the write-ahead journal's size.
	FinalPhase   string
	JournalBytes int
	// JournalConsistent reports that recovering the journal from scratch
	// reproduces the live controller's epoch count and current layout —
	// the crash-safety contract checked on the experiment's own run.
	JournalConsistent bool
	// Actions is the monitored controller's full action log.
	Actions []control.Action
}

// Autonomic runs the autonomic control-loop study:
//
//  1. trace the steady OLTP prefix under SEE, fit the steady workload model,
//     and advise the layout the system starts on;
//  2. replay the prefix under that layout to calibrate: its elapsed time is
//     the full run's shift time (replay determinism), its refit windows set
//     the overlap threshold and the steady utilization level;
//  3. replay the full diurnal workload under the same layout, collecting the
//     refit-window fits the controller will observe; the utilization
//     threshold is the midpoint between the initial layout's steady and
//     drifted predicted utilizations;
//  4. feed the fits to a controller driving a simulated I/O surface: it must
//     detect the shift, re-advise, migrate online, cool down, and return to
//     observing (synthetic trailing windows cover migration time beyond the
//     trace);
//  5. feed the steady prefix's fits alone to a fresh controller: zero actions;
//  6. recover the journal from scratch and check it reproduces the live
//     controller's state.
func Autonomic(cfg *Config) (*AutonomicResult, error) {
	sc := newDriftScenario(cfg.Quick)

	// 1. Steady-state model and the layout the controller starts on.
	s, err := cfg.scenario(sc.prefix, nil, fourDisks()...)
	if err != nil {
		return nil, fmt.Errorf("experiments: autonomic: %w", err)
	}
	inst, sys := s.inst, s.sys
	rec, err := cfg.advise(inst)
	if err != nil {
		return nil, fmt.Errorf("experiments: autonomic initial advise: %w", err)
	}
	initial := rec.Final

	// 2. Calibration replay of the prefix under the initial layout.
	wfitCal := rubicon.NewWindowed(names(sys), sc.refit, rubicon.Options{ActiveRates: true})
	pre, _, err := s.run(cfg, sys, initial, wfitCal)
	if err != nil {
		return nil, fmt.Errorf("experiments: autonomic calibration: %w", err)
	}
	calFits, err := wfitCal.Flush()
	if err != nil {
		return nil, fmt.Errorf("experiments: autonomic calibration refits: %w", err)
	}
	if len(calFits) == 0 {
		return nil, fmt.Errorf("experiments: autonomic calibration produced no refit windows")
	}

	// 3. The monitored trace: full diurnal run under the initial layout.
	wfit := rubicon.NewWindowed(names(sys), sc.refit, rubicon.Options{ActiveRates: true})
	if _, err := replay.RunOLAP(sys, initial, sc.full, replay.Options{
		Seed: cfg.Seed, Tracer: wfit, Metrics: cfg.Metrics, Logger: cfg.Logger}); err != nil {
		return nil, fmt.Errorf("experiments: autonomic monitored replay: %w", err)
	}
	fits, err := wfit.Flush()
	if err != nil {
		return nil, fmt.Errorf("experiments: autonomic monitored refits: %w", err)
	}

	out := &AutonomicResult{
		WindowSize: sc.window,
		RefitSize:  sc.refit,
		ShiftTime:  pre.Elapsed,
		Fits:       len(fits),
		SteadyFits: len(calFits),
	}

	// Calibrate the utilization threshold: midpoint between the initial
	// layout's predicted utilization under steady fits and under drifted
	// ones, mirroring the chaos harness. Fits straddling the shift count as
	// drifted — their scans already load the layout.
	util := func(f rubicon.WindowFit, l *layout.Layout) float64 {
		in := *inst
		in.Workloads = f.Set
		return layout.NewEvaluator(&in).MaxUtilization(l)
	}
	var lastDrifted *rubicon.WindowFit
	for i := range fits {
		f := fits[i]
		u := util(f, initial)
		if f.End <= out.ShiftTime {
			if u > out.SteadyUtil {
				out.SteadyUtil = u
			}
			continue
		}
		if u > out.DriftUtil {
			out.DriftUtil = u
		}
		lastDrifted = &fits[i]
	}
	for _, f := range calFits {
		if u := util(f, initial); u > out.SteadyUtil {
			out.SteadyUtil = u
		}
	}
	if lastDrifted == nil {
		return nil, fmt.Errorf("experiments: autonomic run has no post-shift refit windows")
	}
	if out.DriftUtil <= out.SteadyUtil {
		return nil, fmt.Errorf("experiments: autonomic shift raised no utilization (steady %.3f, drifted %.3f)",
			out.SteadyUtil, out.DriftUtil)
	}
	out.UtilThreshold = (out.SteadyUtil + out.DriftUtil) / 2
	out.OverlapThreshold = overlapThreshold(calFits)
	out.InitialDriftUtil = util(*lastDrifted, initial)

	// 4. The controller, driving a simulated I/O surface built from the
	// instance's targets.
	controller := func(journal *bytes.Buffer) (*control.Controller, *control.SimIO, error) {
		caps := inst.Capacities()
		devs := make([]control.SimDevice, inst.M())
		for j := range devs {
			devs[j] = control.SimDevice{
				Name:        inst.Targets[j].Name,
				Capacity:    caps[j],
				BytesPerSec: 64 << 20,
				FailAt:      -1,
			}
		}
		sim := control.NewSimIO(devs, 0)
		ctl, err := control.New(control.Config{
			Instance: inst,
			Current:  initial,
			IO:       sim,
			Journal:  journal,
			Seed:     cfg.Seed,
			Advisor: core.Options{
				NLP:    nlp.Options{Workers: cfg.Workers, Trace: cfg.Trace},
				Logger: cfg.Logger,
			},
			Drift:            obs.DriftConfig{Trigger: 1, Clear: 2, MinInterval: 2 * sc.refit},
			UtilThreshold:    out.UtilThreshold,
			OverlapThreshold: out.OverlapThreshold,
			HorizonSeconds:   1e6,
			CooldownWindows:  3,
			Migration: migrate.Options{
				BytesPerSec:     64 << 20,
				ChunkBytes:      4 << 20,
				CheckpointBytes: 64 << 20,
				MaxQueueShare:   1,
			},
			Logger:  cfg.Logger,
			Metrics: cfg.Metrics,
		})
		return ctl, sim, err
	}
	feed := func(ctl *control.Controller, sim *control.SimIO, f rubicon.WindowFit) error {
		if dt := f.End - sim.Now(); dt > 0 {
			sim.Advance(dt)
		}
		if err := ctl.ObserveFit(f); err != nil && !errors.Is(err, control.ErrRetriesExhausted) {
			return err
		}
		return nil
	}

	var journal bytes.Buffer
	ctl, sim, err := controller(&journal)
	if err != nil {
		return nil, fmt.Errorf("experiments: autonomic controller: %w", err)
	}
	for _, f := range fits {
		if err := feed(ctl, sim, f); err != nil {
			return nil, fmt.Errorf("experiments: autonomic controller crashed: %w", err)
		}
	}
	// The trace ended, but a migration started near its end is still in
	// flight (plus cooldown). Keep the loop breathing on synthetic windows
	// repeating the last drifted fit until it returns to observing.
	ext := *lastDrifted
	for ctl.Status().Phase != control.PhaseObserving && out.ExtensionWindows < 200 {
		out.ExtensionWindows++
		ext.Window++
		ext.Start, ext.End = ext.End, ext.End+sc.refit
		ext.OverlapDistance = 0
		if err := feed(ctl, sim, ext); err != nil {
			return nil, fmt.Errorf("experiments: autonomic controller crashed: %w", err)
		}
	}

	out.Actions = ctl.Actions()
	for _, a := range out.Actions {
		switch a.Kind {
		case "detect":
			if !out.Detected {
				out.Detected = true
				out.DetectWindow = a.Window
				out.DetectSignal = a.Signal
			}
		case "migrate-start":
			if out.Epochs == 0 {
				out.MigrateStartTime = a.Time
				out.Gain = a.Gain
				var steps int
				fmt.Sscanf(a.Detail, "%d steps, %d bytes", &steps, &out.MigratedBytes)
			}
		case "migrate-done":
			out.Epochs++
			out.MigrateDoneTime = a.Time
		case "cooldown-end":
			out.CooldownEnd = a.Time
		case "skip":
			out.Skips++
		}
	}
	out.FinalPhase = ctl.Status().Phase.String()
	out.FinalDriftUtil = util(*lastDrifted, ctl.CurrentLayout())
	out.JournalBytes = journal.Len()

	// 5. The steady prefix alone must provoke nothing.
	var steadyJournal bytes.Buffer
	sctl, ssim, err := controller(&steadyJournal)
	if err != nil {
		return nil, fmt.Errorf("experiments: autonomic steady controller: %w", err)
	}
	for _, f := range calFits {
		if err := feed(sctl, ssim, f); err != nil {
			return nil, fmt.Errorf("experiments: autonomic steady controller crashed: %w", err)
		}
	}
	out.SteadyActions = len(sctl.Actions())

	// 6. The journal, recovered from scratch, must reproduce the live state.
	ck, err := control.Recover(journal.Bytes())
	out.JournalConsistent = err == nil &&
		ck.Epoch == ctl.Status().Epoch &&
		layoutsClose(ck.Current, ctl.CurrentLayout())
	return out, nil
}

// layoutsClose reports whether two layouts agree within numerical noise.
func layoutsClose(a, b *layout.Layout) bool {
	if a == nil || b == nil || a.N != b.N || a.M != b.M {
		return false
	}
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.M; j++ {
			if math.Abs(a.At(i, j)-b.At(i, j)) > 1e-9 {
				return false
			}
		}
	}
	return true
}

// AutonomicTable renders the autonomic control-loop study.
func AutonomicTable(r *AutonomicResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "autonomic loop: diurnal shift at t=%.1fs (%d refit windows of %.2gs)\n",
		r.ShiftTime, r.Fits, r.RefitSize)
	fmt.Fprintf(&sb, "calibration: steady util %.3f, drifted util %.3f -> threshold %.3f; overlap threshold %.3f\n",
		r.SteadyUtil, r.DriftUtil, r.UtilThreshold, r.OverlapThreshold)
	fmt.Fprintf(&sb, "steady replay: %d fits, %d controller actions (want 0)\n\n",
		r.SteadyFits, r.SteadyActions)
	if r.Detected {
		fmt.Fprintf(&sb, "detected in refit window %d (signal %s)\n", r.DetectWindow, r.DetectSignal)
	} else {
		fmt.Fprintf(&sb, "drift NOT detected\n")
	}
	if r.Epochs > 0 {
		fmt.Fprintf(&sb, "migrated %d bytes at t=%.1fs for predicted gain %.3f; done t=%.1fs, cooldown over t=%.1fs\n",
			r.MigratedBytes, r.MigrateStartTime, r.Gain, r.MigrateDoneTime, r.CooldownEnd)
	} else {
		fmt.Fprintf(&sb, "no migration ran (%d gated detections)\n", r.Skips)
	}
	fmt.Fprintf(&sb, "predicted util under the night workload: %.3f before -> %.3f after\n",
		r.InitialDriftUtil, r.FinalDriftUtil)
	fmt.Fprintf(&sb, "loop: %d epochs, %d skips, %d trailing windows to steady state, final phase %s\n",
		r.Epochs, r.Skips, r.ExtensionWindows, r.FinalPhase)
	fmt.Fprintf(&sb, "journal: %d bytes, recovery %s\n",
		r.JournalBytes, map[bool]string{true: "consistent with live state", false: "INCONSISTENT"}[r.JournalConsistent])
	fmt.Fprintf(&sb, "\nactions:\n")
	for _, a := range r.Actions {
		fmt.Fprintf(&sb, "  t=%8.1f  %-13s", a.Time, a.Kind)
		if a.Epoch > 0 {
			fmt.Fprintf(&sb, " epoch %d", a.Epoch)
		}
		if a.Signal != "" {
			fmt.Fprintf(&sb, " [%s]", a.Signal)
		}
		if a.Detail != "" {
			fmt.Fprintf(&sb, " %s", a.Detail)
		}
		fmt.Fprintln(&sb)
	}
	return sb.String()
}
