// Package layout implements the paper's layout problem formulation: layout
// matrices with their validity and regularity constraints (Sec. 3), the LVM
// striping layout model (Fig. 7), the contention factor (Eq. 2), and the
// storage target utilization predictor (Eq. 1) built on black-box cost
// models. It also provides the heuristic baseline layouts the paper compares
// against (SEE, isolate-tables, …).
package layout

import (
	"fmt"
	"math"
	"strings"
)

// Epsilon is the tolerance used when comparing layout fractions.
const Epsilon = 1e-9

// Layout is an N x M matrix L where L[i][j] is the fraction of object i
// assigned to target j (Sec. 3). A valid layout satisfies the integrity
// constraint (each row sums to 1) and the capacity constraint (assigned bytes
// fit every target).
type Layout struct {
	N, M int
	frac []float64 // row-major
}

// New returns an all-zero N x M layout (not yet valid: rows sum to 0).
func New(n, m int) *Layout {
	if n <= 0 || m <= 0 {
		panic(fmt.Sprintf("layout: invalid dimensions %dx%d", n, m))
	}
	return &Layout{N: n, M: m, frac: make([]float64, n*m)}
}

// FromRows builds an n x m layout from a fraction matrix, one row per
// object, and checks its shape and integrity.
func FromRows(rows [][]float64, n, m int) (*Layout, error) {
	if len(rows) != n {
		return nil, fmt.Errorf("layout: %d rows for %d objects", len(rows), n)
	}
	l := New(n, m)
	for i, row := range rows {
		if len(row) != m {
			return nil, fmt.Errorf("layout: row %d has %d fractions for %d targets", i, len(row), m)
		}
		l.SetRow(i, row)
	}
	if err := l.CheckIntegrity(); err != nil {
		return nil, err
	}
	return l, nil
}

// At returns L[i][j].
func (l *Layout) At(i, j int) float64 { return l.frac[i*l.M+j] }

// Set assigns L[i][j] = v.
func (l *Layout) Set(i, j int, v float64) { l.frac[i*l.M+j] = v }

// Row returns a copy of object i's row.
func (l *Layout) Row(i int) []float64 {
	return append([]float64(nil), l.frac[i*l.M:(i+1)*l.M]...)
}

// SetRow replaces object i's row.
func (l *Layout) SetRow(i int, row []float64) {
	if len(row) != l.M {
		panic(fmt.Sprintf("layout: row length %d, want %d", len(row), l.M))
	}
	copy(l.frac[i*l.M:(i+1)*l.M], row)
}

// Clone returns a deep copy.
func (l *Layout) Clone() *Layout {
	c := New(l.N, l.M)
	copy(c.frac, l.frac)
	return c
}

// RowSum returns the sum of object i's fractions.
func (l *Layout) RowSum(i int) float64 {
	var s float64
	for j := 0; j < l.M; j++ {
		s += l.At(i, j)
	}
	return s
}

// TargetBytes returns the bytes assigned to target j given object sizes.
func (l *Layout) TargetBytes(j int, sizes []int64) float64 {
	var b float64
	for i := 0; i < l.N; i++ {
		b += float64(sizes[i]) * l.At(i, j)
	}
	return b
}

// CheckIntegrity verifies every row sums to 1 and all entries lie in [0,1].
func (l *Layout) CheckIntegrity() error {
	for i := 0; i < l.N; i++ {
		for j := 0; j < l.M; j++ {
			v := l.At(i, j)
			if v < -Epsilon || v > 1+Epsilon || math.IsNaN(v) {
				return fmt.Errorf("layout: L[%d][%d]=%g outside [0,1]", i, j, v)
			}
		}
		if s := l.RowSum(i); math.Abs(s-1) > 1e-6 {
			return fmt.Errorf("layout: row %d sums to %g, want 1", i, s)
		}
	}
	return nil
}

// CheckCapacity verifies the capacity constraint against the given object
// sizes and target capacities.
func (l *Layout) CheckCapacity(sizes []int64, capacities []int64) error {
	if len(sizes) != l.N || len(capacities) != l.M {
		return fmt.Errorf("layout: got %d sizes and %d capacities for a %dx%d layout",
			len(sizes), len(capacities), l.N, l.M)
	}
	for j := 0; j < l.M; j++ {
		if b := l.TargetBytes(j, sizes); b > float64(capacities[j])*(1+1e-9) {
			return fmt.Errorf("layout: target %d assigned %.0f bytes, capacity %d", j, b, capacities[j])
		}
	}
	return nil
}

// IsRegular reports whether the layout is regular per Definition 2: within
// each row, every non-zero entry is equal (each object is spread evenly over
// a subset of targets).
func (l *Layout) IsRegular() bool {
	for i := 0; i < l.N; i++ {
		if !l.RowRegular(i) {
			return false
		}
	}
	return true
}

// RowRegular reports whether object i's row is regular.
func (l *Layout) RowRegular(i int) bool {
	var nz float64
	for j := 0; j < l.M; j++ {
		if v := l.At(i, j); v > Epsilon {
			if nz == 0 {
				nz = v
			} else if math.Abs(v-nz) > 1e-6 {
				return false
			}
		}
	}
	return true
}

// Targets returns the indices of the targets holding a non-zero fraction of
// object i, in ascending order.
func (l *Layout) Targets(i int) []int {
	var ts []int
	for j := 0; j < l.M; j++ {
		if l.At(i, j) > Epsilon {
			ts = append(ts, j)
		}
	}
	return ts
}

// String renders the layout as a compact percentage table.
func (l *Layout) String() string {
	var sb strings.Builder
	for i := 0; i < l.N; i++ {
		for j := 0; j < l.M; j++ {
			fmt.Fprintf(&sb, "%5.1f%%", 100*l.At(i, j))
			if j < l.M-1 {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// RegularRow builds a regular row spreading an object evenly over the given
// targets.
func RegularRow(m int, targets []int) []float64 {
	row := make([]float64, m)
	if len(targets) == 0 {
		return row
	}
	f := 1 / float64(len(targets))
	for _, j := range targets {
		row[j] = f
	}
	return row
}
