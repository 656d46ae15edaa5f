package experiments

import (
	"fmt"
	"strings"

	"dblayout/internal/costmodel"
	"dblayout/internal/replay"
)

// CostSliceSeries is one run-count curve of the paper's Fig. 8: the measured
// per-request cost of 8 KB reads on the 15K disk as a function of the
// contention factor.
type CostSliceSeries struct {
	RunCount   float64
	Contention []float64
	CostMs     []float64
}

// Fig8CostSlice calibrates the disk cost model and extracts the 8 KB read
// slice, one series per calibrated run count.
func Fig8CostSlice(cfg *Config) ([]CostSliceSeries, error) {
	model := Fig8CostSliceModel(cfg)
	si := -1
	for i, s := range model.Read.Sizes {
		if s == 8192 {
			si = i
			break
		}
	}
	if si < 0 {
		return nil, fmt.Errorf("experiments: calibration grid has no 8 KB size point")
	}
	var out []CostSliceSeries
	for ri, rc := range model.Read.RunCounts {
		curve := model.Read.Curves[si][ri]
		s := CostSliceSeries{RunCount: rc}
		for k := range curve.Contention {
			s.Contention = append(s.Contention, curve.Contention[k])
			s.CostMs = append(s.CostMs, curve.Cost[k]*1e3)
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig8Table renders the cost-model slice as a contention x run-count table.
func Fig8Table(series []CostSliceSeries) string {
	var sb strings.Builder
	sb.WriteString("8 KB read request cost (ms) vs. contention factor, per run count:\n")
	fmt.Fprintf(&sb, "%-12s", "chi \\ run")
	for _, s := range series {
		fmt.Fprintf(&sb, " %8.0f", s.RunCount)
	}
	sb.WriteByte('\n')
	if len(series) == 0 {
		return sb.String()
	}
	for k := range series[0].Contention {
		fmt.Fprintf(&sb, "%-12.2f", series[0].Contention[k])
		for _, s := range series {
			if k < len(s.CostMs) {
				fmt.Fprintf(&sb, " %8.3f", s.CostMs[k])
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Fig8CostSliceModel returns the calibrated disk model behind the Fig. 8
// slice, for shape checks.
func Fig8CostSliceModel(cfg *Config) *costmodel.Model {
	cache, grid := cfg.calibration()
	spec := replay.Disk15K("fig8")
	return cache.Get(spec.ModelKey(), spec.Factory(), grid)
}

// Fig8Check verifies the qualitative Fig. 8 properties on a calibrated
// model: sequential requests are much cheaper than random at low contention,
// the advantage collapses as contention grows, and random cost does not grow
// with contention (disk scheduling). It returns a descriptive error when a
// property fails, for use by tests and the verification harness.
func Fig8Check(m *costmodel.Model) error {
	seqLow := m.Cost(false, 8192, 64, 0)
	rndLow := m.Cost(false, 8192, 1, 0)
	if seqLow >= rndLow/4 {
		return fmt.Errorf("sequential %0.3gms not ≪ random %0.3gms at low contention", seqLow*1e3, rndLow*1e3)
	}
	seqHigh := m.Cost(false, 8192, 64, 6)
	if seqHigh < 3*seqLow {
		return fmt.Errorf("no interference collapse: %0.3gms -> %0.3gms", seqLow*1e3, seqHigh*1e3)
	}
	rndHigh := m.Cost(false, 8192, 1, 6)
	if rndHigh > rndLow*1.1 {
		return fmt.Errorf("random cost grows with contention: %0.3gms -> %0.3gms", rndLow*1e3, rndHigh*1e3)
	}
	return nil
}
