package experiments

import (
	"fmt"
	"math"
	"strings"

	"dblayout/internal/benchdb"
	"dblayout/internal/layout"
	"dblayout/internal/obs"
	"dblayout/internal/replay"
	"dblayout/internal/rubicon"
)

// DriftResult reports the diurnal-drift detection study: an OLTP-style
// steady state that abruptly shifts to OLAP scans, watched online by the
// windowed model-validation instrumentation and the drift detector.
type DriftResult struct {
	// WindowSize is the utilization observation window (simulated s);
	// RefitSize is the coarser rubicon refit window.
	WindowSize, RefitSize float64
	// Devices names the targets, in order.
	Devices []string
	// Predicted are the cost model's raw per-device utilization
	// predictions for the steady-state workload; Calibrated are the same
	// predictions after removing the measured steady-state bias (the
	// values the detector validates against — the detector watches
	// *changes* in model error, and the calibration run already knows the
	// static bias).
	Predicted, Calibrated []float64
	// SteadyBias is the largest |observed − predicted| gap during steady
	// state; Threshold is the calibrated prediction-error trigger level
	// and OverlapThreshold the overlap-distance trigger level.
	SteadyBias, Threshold, OverlapThreshold float64
	// ShiftTime is when the workload shifted (the steady-state prefix's
	// full duration, simulated s); ShiftWindow is the same in windows.
	ShiftTime   float64
	ShiftWindow int64
	// Elapsed is the monitored run's total duration.
	Elapsed float64
	// SteadyEvents counts detector events before the shift (must be 0).
	SteadyEvents int
	// Detected reports whether the prediction-error detector fired after
	// the shift; DetectionWindow/DetectionLatency locate the first event
	// (latency in windows after the shift).
	Detected         bool
	DetectionWindow  int64
	DetectionLatency int64
	// OverlapDetected reports whether the overlap-distance detector saw
	// the workload composition change, at OverlapDistance.
	OverlapDetected bool
	OverlapDistance float64
	// Events are all fired events, both signals, in firing order.
	Events []obs.DriftEvent
}

// driftScenario bundles the diurnal workload: a daytime OLTP phase (paced
// random page reads on orders+stock) that abruptly gives way to a nightly
// reporting phase (sequential scans of orders+history). The phase boundary
// is the drift the detector must find.
type driftScenario struct {
	// prefix is the steady-state phase alone; full is steady state
	// followed by the shift. Both replay phase one identically under the
	// same seed, so the prefix run's elapsed time IS the full run's shift
	// time.
	prefix, full *benchdb.OLAPWorkload
	window       float64 // utilization window (simulated s)
	refit        float64 // rubicon refit window (simulated s)
}

func newDriftScenario(quick bool) *driftScenario {
	objects := []layout.Object{
		{Name: "orders", Size: 1 << 30, Kind: layout.KindTable},
		{Name: "stock", Size: 1 << 30, Kind: layout.KindTable},
		{Name: "history", Size: 1 << 30, Kind: layout.KindTable},
	}
	catalog := &benchdb.Catalog{Name: "diurnal", Objects: objects}
	pagesA, scanB, window := int64(3000), int64(2<<30), 1.0
	if quick {
		pagesA, scanB, window = 900, 768<<20, 0.5
	}
	oltp := benchdb.Phase{Streams: []benchdb.Stream{
		{Object: "orders", Bytes: pagesA * benchdb.PageSize, ThinkPerReq: 4e-3},
		{Object: "stock", Bytes: pagesA * benchdb.PageSize, ThinkPerReq: 4e-3},
	}}
	// The nightly scans run with read-ahead depth, drawing bandwidth from
	// every stripe at once — the utilization jump the detector must see.
	olap := benchdb.Phase{Streams: []benchdb.Stream{
		{Object: "orders", Bytes: scanB, Sequential: true, Depth: 8},
		{Object: "history", Bytes: scanB, Sequential: true, Depth: 8},
	}}
	mk := func(name string, phases ...benchdb.Phase) *benchdb.OLAPWorkload {
		return &benchdb.OLAPWorkload{
			Name:    name,
			Catalog: catalog,
			Queries: []benchdb.Query{{Name: name, Phases: phases}},
		}
	}
	return &driftScenario{
		prefix: mk("diurnal-prefix", oltp),
		full:   mk("diurnal", oltp, olap),
		window: window,
		refit:  4 * window,
	}
}

// Drift runs the diurnal OLTP→OLAP drift study:
//
//  1. take the steady-state model from the prefix's scenario (traced under
//     SEE and fitted, shared with the autonomic study), then replay the
//     prefix alone recording per-window observed utilizations — the
//     calibration run. Its elapsed time is, by replay determinism, the
//     shift time of the full run, and its window errors set the detection
//     thresholds;
//  2. replay the full diurnal workload with the windowed model-validation
//     observer and two drift detectors attached — prediction error per
//     device, and overlap-matrix distance between successive rubicon refit
//     windows;
//  3. report detection latency in windows after the shift, and verify no
//     event fired during the steady-state prefix.
func Drift(cfg *Config) (*DriftResult, error) {
	sc := newDriftScenario(cfg.Quick)
	s, err := cfg.scenario(sc.prefix, nil, fourDisks()...)
	if err != nil {
		return nil, fmt.Errorf("experiments: drift: %w", err)
	}
	sys, see := s.sys, s.see

	// 1. Calibration: measure the steady-state model's per-window
	// validation error under the steady workload.
	wfitCal := rubicon.NewWindowed(names(sys), sc.refit, rubicon.Options{ActiveRates: true})
	calReg := obs.NewRegistry()
	pre, err := replay.RunOLAP(sys, see, sc.prefix, replay.Options{
		Seed:    cfg.Seed,
		Tracer:  wfitCal,
		Metrics: calReg,
		Logger:  cfg.Logger,
		Windows: &replay.WindowConfig{Size: sc.window},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: drift calibration: %w", err)
	}
	predicted := layout.NewEvaluator(s.inst).Utilizations(see)

	out := &DriftResult{
		WindowSize: sc.window,
		RefitSize:  sc.refit,
		Predicted:  predicted,
		ShiftTime:  pre.Elapsed,
	}
	for _, d := range sys.Devices {
		out.Devices = append(out.Devices, d.Name)
	}

	// Bias-correct the predictions against the observed steady state and
	// set the trigger threshold from the residual window noise: the
	// detector should fire on a change in model error, not on the static
	// calibration gap it was just shown.
	out.Calibrated = make([]float64, len(predicted))
	var maxResid float64
	for j, d := range sys.Devices {
		snap := calReg.Series(obs.Name("replay_device_window_utilization", "device", d.Name), 0).Snapshot()
		if snap.Count == 0 {
			return nil, fmt.Errorf("experiments: drift calibration recorded no windows for %s", d.Name)
		}
		out.Calibrated[j] = snap.Mean
		if bias := math.Abs(snap.Mean - predicted[j]); bias > out.SteadyBias {
			out.SteadyBias = bias
		}
		for _, w := range snap.Samples {
			if r := math.Abs(w.V - snap.Mean); r > maxResid {
				maxResid = r
			}
		}
	}
	out.Threshold = 3 * maxResid
	if out.Threshold < 0.08 {
		out.Threshold = 0.08
	}
	calFits, err := wfitCal.Flush()
	if err != nil {
		return nil, fmt.Errorf("experiments: drift calibration refits: %w", err)
	}
	out.OverlapThreshold = overlapThreshold(calFits)

	// 2. The monitored run: full diurnal workload, detectors armed.
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var events *obs.JSONL
	if cfg.DriftEvents != nil {
		events = obs.NewJSONL(cfg.DriftEvents)
	}
	det := obs.NewDetector(obs.DriftConfig{
		Threshold:   out.Threshold,
		Trigger:     2,
		MinInterval: 5 * sc.window,
	}, cfg.Logger, events, reg)
	ovDet := obs.NewDetector(obs.DriftConfig{
		Threshold:   out.OverlapThreshold,
		Trigger:     1,
		MinInterval: 2 * sc.refit,
	}, cfg.Logger, events, reg)

	ovSeries := reg.Series("rubicon_overlap_distance", 0)
	wfit := rubicon.NewWindowed(names(sys), sc.refit, rubicon.Options{ActiveRates: true})
	wfit.OnFit = func(f rubicon.WindowFit) {
		ovSeries.Record(f.End, f.OverlapDistance)
		if f.Window > 0 {
			ovDet.Observe("overlap_distance", f.Window, f.End, f.OverlapDistance)
		}
	}
	res, err := replay.RunOLAP(sys, see, sc.full, replay.Options{
		Seed:    cfg.Seed,
		Tracer:  wfit,
		Metrics: reg,
		Logger:  cfg.Logger,
		Windows: &replay.WindowConfig{
			Size:      sc.window,
			Predicted: out.Calibrated,
			Detector:  det,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: drift replay: %w", err)
	}
	if _, err := wfit.Flush(); err != nil {
		return nil, fmt.Errorf("experiments: drift refits: %w", err)
	}
	if events != nil {
		if err := events.Err(); err != nil {
			return nil, fmt.Errorf("experiments: drift event stream: %w", err)
		}
	}

	// 3. Score detection against the known shift time.
	out.Elapsed = res.Elapsed
	out.ShiftWindow = int64(out.ShiftTime / sc.window)
	for _, ev := range det.Events() {
		if ev.Window < out.ShiftWindow {
			out.SteadyEvents++
			continue
		}
		if !out.Detected {
			out.Detected = true
			out.DetectionWindow = ev.Window
			out.DetectionLatency = ev.Window - out.ShiftWindow
		}
	}
	for _, ev := range ovDet.Events() {
		if !out.OverlapDetected {
			out.OverlapDetected = true
			out.OverlapDistance = ev.Value
		}
	}
	out.Events = append(det.Events(), ovDet.Events()...)
	return out, nil
}

// DriftTable renders the drift study.
func DriftTable(r *DriftResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "drift: diurnal OLTP->OLAP shift at t=%.1fs (window %d of %.2gs windows)\n",
		r.ShiftTime, r.ShiftWindow, r.WindowSize)
	fmt.Fprintf(&sb, "model validation: steady bias %.3f, error threshold %.3f, overlap threshold %.3f\n\n",
		r.SteadyBias, r.Threshold, r.OverlapThreshold)
	fmt.Fprintf(&sb, "%-8s %12s %12s\n", "Device", "Predicted", "Calibrated")
	for j, name := range r.Devices {
		fmt.Fprintf(&sb, "%-8s %12.3f %12.3f\n", name, r.Predicted[j], r.Calibrated[j])
	}
	fmt.Fprintf(&sb, "\nsteady-state events: %d (want 0)\n", r.SteadyEvents)
	if r.Detected {
		fmt.Fprintf(&sb, "prediction-error drift detected in window %d: %d windows (%.1fs) after the shift\n",
			r.DetectionWindow, r.DetectionLatency, float64(r.DetectionLatency)*r.WindowSize)
	} else {
		fmt.Fprintf(&sb, "prediction-error drift NOT detected\n")
	}
	if r.OverlapDetected {
		fmt.Fprintf(&sb, "overlap-matrix drift detected: distance %.3f across a %.2gs refit window\n",
			r.OverlapDistance, r.RefitSize)
	} else {
		fmt.Fprintf(&sb, "overlap-matrix drift NOT detected\n")
	}
	return sb.String()
}

// overlapThreshold is the overlap-distance trigger level calibrated on a
// steady run's refit windows: 3x the largest distance between successive
// steady windows (the first window has no predecessor), at least 0.1.
func overlapThreshold(steady []rubicon.WindowFit) float64 {
	var maxOv float64
	for i := 1; i < len(steady); i++ {
		if d := steady[i].OverlapDistance; d > maxOv {
			maxOv = d
		}
	}
	if t := 3 * maxOv; t > 0.1 {
		return t
	}
	return 0.1
}
