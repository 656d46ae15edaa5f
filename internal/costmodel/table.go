// Package costmodel implements the paper's black-box storage target models.
//
// A target model predicts the per-request service cost on a storage target as
// a function of three workload parameters: request size, run count
// (sequentiality), and the contention factor (temporally-correlated competing
// requests per own request, Eq. 2 of the paper). Following Sec. 5.2.2, the
// models are not analytic: they are tables of measured costs obtained by
// subjecting the target to calibration workloads with known parameters, with
// interpolation between calibration points at lookup time.
//
// A lookup locates the grid cell of a (size, run count) point, then
// evaluates it at a contention value (Table.Cell, Cell.At). Callers that
// price one point at many contention values keep the cell.
package costmodel

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Curve is the measured cost (seconds per request) as a function of the
// contention factor, for one (request size, run count) calibration cell.
// Contention values are the *measured* contention factors of the calibration
// runs and are strictly increasing.
type Curve struct {
	Contention []float64 `json:"contention"`
	Cost       []float64 `json:"cost"`
}

// At returns the cost at contention chi, linearly interpolating between
// calibration points and clamping beyond the measured range.
func (c *Curve) At(chi float64) float64 {
	n := len(c.Contention)
	if n == 0 {
		return 0
	}
	if chi <= c.Contention[0] {
		return c.Cost[0]
	}
	if chi >= c.Contention[n-1] {
		return c.Cost[n-1]
	}
	i := sort.SearchFloat64s(c.Contention, chi)
	// c.Contention[i-1] < chi <= c.Contention[i]
	lo, hi := c.Contention[i-1], c.Contention[i]
	f := (chi - lo) / (hi - lo)
	return c.Cost[i-1]*(1-f) + c.Cost[i]*f
}

// Valid reports whether the curve is well-formed.
func (c *Curve) Valid() error {
	if len(c.Contention) == 0 || len(c.Contention) != len(c.Cost) {
		return fmt.Errorf("costmodel: curve with %d contention points, %d costs",
			len(c.Contention), len(c.Cost))
	}
	for i := range c.Contention {
		if i > 0 && c.Contention[i] <= c.Contention[i-1] {
			return fmt.Errorf("costmodel: contention axis not increasing at %d", i)
		}
		if c.Cost[i] <= 0 || math.IsNaN(c.Cost[i]) {
			return fmt.Errorf("costmodel: non-positive cost at %d", i)
		}
	}
	return nil
}

// Table is the full cost model for one request direction (read or write) on
// one target type: a grid of contention curves indexed by request size and
// run count.
//
// A lookup splits into two steps: Cell locates the grid cell of a (size, run
// count) point, and Cell.At evaluates it at a contention value. A caller that
// prices one point at many contention values, as the layout kernel does for
// an object whose fraction on a target is unchanged, locates the cell once.
type Table struct {
	// Sizes are the calibrated request sizes in bytes, increasing.
	Sizes []float64 `json:"sizes"`
	// RunCounts are the calibrated run counts, increasing.
	RunCounts []float64 `json:"run_counts"`
	// Curves[si][ri] is the contention curve for Sizes[si], RunCounts[ri].
	Curves [][]Curve `json:"curves"`

	// logSizes and logRuns hold math.Log of every axis point. Calibrate
	// and Load fill them, so a lookup there takes one logarithm per axis
	// instead of three; the axes of such a table must not change
	// afterwards. A table built as a literal has neither and takes the
	// logarithms of the bracketing points on each lookup. Both ways give
	// the same bits. They are not serialized.
	logSizes, logRuns []float64
}

// Valid reports whether the table is well-formed. Interpolation is in log
// space, so every axis point must be finite and positive.
func (t *Table) Valid() error {
	if len(t.Sizes) == 0 || len(t.RunCounts) == 0 {
		return fmt.Errorf("costmodel: empty table axes")
	}
	if len(t.Curves) != len(t.Sizes) {
		return fmt.Errorf("costmodel: %d curve rows, want %d", len(t.Curves), len(t.Sizes))
	}
	for si := range t.Curves {
		if len(t.Curves[si]) != len(t.RunCounts) {
			return fmt.Errorf("costmodel: row %d has %d curves, want %d",
				si, len(t.Curves[si]), len(t.RunCounts))
		}
		for ri := range t.Curves[si] {
			if err := t.Curves[si][ri].Valid(); err != nil {
				return fmt.Errorf("cell (%d,%d): %w", si, ri, err)
			}
		}
	}
	if err := validAxis("size", t.Sizes); err != nil {
		return err
	}
	return validAxis("run-count", t.RunCounts)
}

// validAxis checks that axis is increasing and that each point has a finite
// logarithm.
func validAxis(name string, axis []float64) error {
	for i, v := range axis {
		if !(v > 0) || math.IsInf(v, 1) {
			return fmt.Errorf("costmodel: %s axis point %d is %g, want finite and positive", name, i, v)
		}
		if i > 0 && v <= axis[i-1] {
			return fmt.Errorf("costmodel: %s axis not increasing", name)
		}
	}
	return nil
}

// fillLogs records the logarithms of the table's axis points.
func (t *Table) fillLogs() {
	t.logSizes = logAxis(t.Sizes)
	t.logRuns = logAxis(t.RunCounts)
}

func logAxis(axis []float64) []float64 {
	logs := make([]float64, len(axis))
	for i, v := range axis {
		logs[i] = math.Log(v)
	}
	return logs
}

// bracket returns indices (i, j) and weight f such that axis[i] and axis[j]
// bracket v with interpolation weight f toward j, clamping outside the range.
// Interpolation is performed in log space because both the size and run-count
// axes are geometric. logs is math.Log of each axis point, or nil, in which
// case the two bracketing logarithms are taken here.
func bracket(axis, logs []float64, v float64) (int, int, float64) {
	n := len(axis)
	if v <= axis[0] {
		return 0, 0, 0
	}
	if v >= axis[n-1] {
		return n - 1, n - 1, 0
	}
	i := sort.SearchFloat64s(axis, v)
	var lo, hi float64
	if logs != nil {
		lo, hi = logs[i-1], logs[i]
	} else {
		lo, hi = math.Log(axis[i-1]), math.Log(axis[i])
	}
	f := (math.Log(v) - lo) / (hi - lo)
	return i - 1, i, f
}

// Cell is a located grid cell of a Table: the four contention curves that
// bracket one (request size, run count) point, and the log-space weights
// toward its larger size and larger run count. The zero Cell must not be
// evaluated.
type Cell struct {
	c00, c01, c10, c11 *Curve
	sf, rf             float64
}

// Cell locates the grid cell of the given request size (bytes) and run
// count. Values outside the calibrated ranges are clamped to the nearest
// calibrated point. The cell refers to the table's curves and is valid while
// the table is.
func (t *Table) Cell(size, runCount float64) Cell {
	s0, s1, sf := bracket(t.Sizes, t.logSizes, size)
	r0, r1, rf := bracket(t.RunCounts, t.logRuns, runCount)
	return Cell{
		c00: &t.Curves[s0][r0], c01: &t.Curves[s0][r1],
		c10: &t.Curves[s1][r0], c11: &t.Curves[s1][r1],
		sf: sf, rf: rf,
	}
}

// At returns the cell's interpolated per-request cost in seconds at
// contention factor chi.
func (c Cell) At(chi float64) float64 {
	c00 := c.c00.At(chi)
	c01 := c.c01.At(chi)
	c10 := c.c10.At(chi)
	c11 := c.c11.At(chi)
	low := c00*(1-c.rf) + c01*c.rf
	high := c10*(1-c.rf) + c11*c.rf
	return low*(1-c.sf) + high*c.sf
}

// Lookup returns the interpolated per-request cost in seconds for the given
// request size (bytes), run count, and contention factor: Cell(size,
// runCount).At(chi). Values outside the calibrated ranges are clamped to the
// nearest calibrated point.
func (t *Table) Lookup(size, runCount, chi float64) float64 {
	return t.Cell(size, runCount).At(chi)
}

// Model is the complete per-target-type cost model: one table for reads and
// one for writes, as Sec. 5.2.2 prescribes.
type Model struct {
	// Target names the device type the model was calibrated against.
	Target string `json:"target"`
	Read   Table  `json:"read"`
	Write  Table  `json:"write"`
}

// Cost returns the per-request cost for the given direction and workload
// parameters.
func (m *Model) Cost(write bool, size, runCount, chi float64) float64 {
	if write {
		return m.Write.Lookup(size, runCount, chi)
	}
	return m.Read.Lookup(size, runCount, chi)
}

// Valid reports whether both tables are well-formed.
func (m *Model) Valid() error {
	if err := m.Read.Valid(); err != nil {
		return fmt.Errorf("read table: %w", err)
	}
	if err := m.Write.Valid(); err != nil {
		return fmt.Errorf("write table: %w", err)
	}
	return nil
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(m)
}

// Load parses a model saved by Save and validates it.
func Load(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("costmodel: decoding model: %w", err)
	}
	if err := m.Valid(); err != nil {
		return nil, err
	}
	m.Read.fillLogs()
	m.Write.fillLogs()
	return &m, nil
}
