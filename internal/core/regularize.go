package core

import (
	"fmt"
	"math"
	"sort"

	"dblayout/internal/layout"
)

// Regularize converts the solver's (possibly non-regular) layout into a
// regular one using the post-processing algorithm of paper Sec. 4.3.
//
// Objects are regularized one at a time in decreasing order of the total
// storage system load they impose (sum over targets of mu_ij), so that load
// imbalances introduced early can be corrected by later objects. For each
// object, two classes of regular candidate rows are generated:
//
//   - consistent candidates: the top-k targets of the object's solver row,
//     ranked by assigned fraction (ties broken by target index), each
//     holding 1/k — the only regular layouts that preserve the solver's
//     ordering of fractions;
//   - balancing candidates: the k least-utilized targets under the current
//     partially-regularized layout, each holding 1/k.
//
// Candidates violating the capacity constraint are discarded; among the rest
// the one minimizing the maximum target utilization wins. If every candidate
// for some object is invalid, Regularize fails (the paper notes manual
// intervention would then be required).
func Regularize(ev *layout.Evaluator, inst *layout.Instance, solved *layout.Layout) (*layout.Layout, error) {
	n, m := solved.N, solved.M
	l := solved.Clone()
	sizes := inst.Sizes()
	caps := inst.Capacities()

	// Regularization order: decreasing total imposed load. The loads are
	// precomputed in one batch pass (bit-identical to per-object
	// ev.ObjectLoad calls, which would cost O(N) target sweeps each), so
	// the ordering step is the O(N log N) sort, not an O(N^2) scan.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	loads := ev.ObjectLoads(solved)
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]] > loads[order[b]] })

	// On fleet-scale problems generating all M stripe widths per object
	// would reintroduce an O(N*M^2) term; bound the widths considered, the
	// same way the transfer search bounds its candidate scans. Paper-scale
	// problems stay below the threshold and keep the exhaustive scan, so
	// their output is unchanged.
	maxWidth := m
	if n*m >= regularizeAutoPairs && maxWidth > regularizeMaxWidth {
		maxWidth = regularizeMaxWidth
	}

	// A candidate row changes only the targets whose own cell changes, so
	// the incremental kernel prices each candidate in O(changed targets *
	// active objects) against the current partially-regularized layout,
	// and a rowPricer stops pricing a candidate once it cannot win.
	inc := ev.NewIncremental(l)
	utils := inc.Utilizations(nil)
	rp := newRowPricer(inc, maxWidth)
	bytes := targetBytes(l, sizes)

	for _, i := range order {
		if l.RowRegular(i) {
			continue
		}
		oldRow := l.Row(i)

		var candidates [][]float64
		candidates = append(candidates, consistentCandidates(oldRow, maxWidth)...)
		candidates = append(candidates, balancingCandidates(utils, maxWidth)...)

		rp.setObject(i)
		bestObj := math.Inf(1)
		var bestRow []float64
		for _, cand := range candidates {
			if !capacityOK(l, i, cand, sizes, caps, bytes) || !constraintsOK(inst, l, i, cand) {
				continue
			}
			if obj, ok := rp.price(utils, oldRow, cand, bestObj); ok {
				bestObj = obj
				bestRow = cand
			}
		}
		if bestRow == nil {
			return nil, fmt.Errorf("no valid regular layout for object %q: space constraints too tight",
				inst.Objects[i].Name)
		}
		inc.SetObjectRow(i, bestRow)
		utils = inc.Utilizations(utils[:0])
		refreshBytes(bytes, l, oldRow, bestRow, sizes)
	}
	if !l.IsRegular() {
		return nil, fmt.Errorf("internal error: result not regular")
	}
	if err := inst.ValidateLayout(l); err != nil {
		return nil, fmt.Errorf("internal error: regularized layout invalid: %w", err)
	}
	return l, nil
}

// Fleet-scale candidate bound: when a problem reaches this many
// object-target pairs (the same threshold at which the transfer search's
// candidate pruning auto-engages; the paper's largest study, 160 x 40,
// stays three orders of magnitude below it), candidate stripe widths are
// capped at regularizeMaxWidth instead of ranging over all M targets.
const (
	regularizeAutoPairs = 1 << 18
	regularizeMaxWidth  = 64
)

// consistentCandidates returns the regular rows consistent with the
// solver's row: for k = 1..maxWidth, the k targets with the largest
// fractions (ties broken by index, as footnote 1 of the paper prescribes)
// receive 1/k each.
func consistentCandidates(row []float64, maxWidth int) [][]float64 {
	m := len(row)
	idx := make([]int, m)
	for j := range idx {
		idx[j] = j
	}
	sort.SliceStable(idx, func(a, b int) bool { return row[idx[a]] > row[idx[b]] })

	out := make([][]float64, 0, maxWidth)
	for k := 1; k <= maxWidth; k++ {
		out = append(out, layout.RegularRow(m, idx[:k]))
	}
	return out
}

// balancingCandidates returns the regular rows that place the object on
// the k least-utilized targets, for k = 1..maxWidth.
func balancingCandidates(utils []float64, maxWidth int) [][]float64 {
	m := len(utils)
	idx := make([]int, m)
	for j := range idx {
		idx[j] = j
	}
	sort.SliceStable(idx, func(a, b int) bool { return utils[idx[a]] < utils[idx[b]] })

	out := make([][]float64, 0, maxWidth)
	for k := 1; k <= maxWidth; k++ {
		out = append(out, layout.RegularRow(m, idx[:k]))
	}
	return out
}

// constraintsOK checks whether replacing object i's row with cand respects
// the instance's administrative constraints against the current layout.
func constraintsOK(inst *layout.Instance, l *layout.Layout, i int, cand []float64) bool {
	c := inst.Constraints
	if c == nil {
		return true
	}
	partners := c.SeparatedFrom(i)
	for j, v := range cand {
		if v <= layout.Epsilon {
			continue
		}
		if !c.Permits(i, j) {
			return false
		}
		for _, k := range partners {
			if l.At(k, j) > layout.Epsilon {
				return false
			}
		}
	}
	return true
}

// capacityOK checks whether replacing object i's row with cand keeps every
// target within capacity, given each target's bytes under l.
func capacityOK(l *layout.Layout, i int, cand []float64, sizes, caps []int64, bytes []float64) bool {
	size := float64(sizes[i])
	for j := range cand {
		delta := (cand[j] - l.At(i, j)) * size
		if delta <= 0 {
			continue
		}
		if bytes[j]+delta > float64(caps[j])*(1+1e-12) {
			return false
		}
	}
	return true
}

// targetBytes returns each target's bytes under l: the O(N) column sums
// capacityOK would otherwise redo for every candidate.
func targetBytes(l *layout.Layout, sizes []int64) []float64 {
	bytes := make([]float64, l.M)
	for j := range bytes {
		bytes[j] = l.TargetBytes(j, sizes)
	}
	return bytes
}

// refreshBytes re-sums the targets whose cell changed when an object's row
// went from oldRow to newRow, with the same sum in the same order, so the
// cache keeps the bits a fresh targetBytes would give.
func refreshBytes(bytes []float64, l *layout.Layout, oldRow, newRow []float64, sizes []int64) {
	for j, f := range newRow {
		if f != oldRow[j] {
			bytes[j] = l.TargetBytes(j, sizes)
		}
	}
}

// rowPricer prices candidate rows of one object against an incremental
// kernel's current state. Replacing a row changes only the targets whose
// own cell changes, so a candidate's max is at least the hottest target it
// leaves alone; price stops at the first evidence that the max reaches the
// caller's limit, before or between the probes of the changed targets. The
// consistent and balancing candidates of one object put the same fractions
// on many of the same targets, so each (target, fraction) probe is made
// once per object. The kernel does not change while one object's candidates
// are priced, so a remembered probe has the bits a repeated one would.
type rowPricer struct {
	inc  *layout.IncrementalEvaluator
	obj  int
	newU []float64 // the last fully priced candidate's utilizations

	// Candidate fractions are 1/k for k <= width, or 0. The probe of
	// fraction 1/k (k = 0: fraction 0) on target j lives at slot
	// j*(width+1)+k and is the current object's while its stamp is gen.
	width int
	memo  []float64
	stamp []int
	gen   int
}

func newRowPricer(inc *layout.IncrementalEvaluator, width int) *rowPricer {
	m := inc.Layout().M
	return &rowPricer{
		inc:   inc,
		newU:  make([]float64, m),
		width: width,
		memo:  make([]float64, m*(width+1)),
		stamp: make([]int, m*(width+1)),
	}
}

// setObject makes object i the one whose candidates are priced next and
// forgets the previous object's probes.
func (p *rowPricer) setObject(i int) {
	p.obj = i
	p.gen++
}

// score returns target j's utilization with the current object's fraction
// there set to f. A fraction other than 0 or 1/k for k <= width is probed
// without the memo.
func (p *rowPricer) score(j int, f float64) float64 {
	k := 0
	if f != 0 {
		if r := 1 / f; r > 0.5 && r < float64(p.width)+0.5 {
			k = int(r + 0.5)
		}
		if k == 0 || 1/float64(k) != f {
			return p.inc.ScoreObjectFrac(j, p.obj, f)
		}
	}
	s := j*(p.width+1) + k
	if p.stamp[s] != p.gen {
		p.memo[s] = p.inc.ScoreObjectFrac(j, p.obj, f)
		p.stamp[s] = p.gen
	}
	return p.memo[s]
}

// price returns the max utilization after replacing the current object's
// row oldRow with cand, given the current utilizations, and ok = true, if
// that max is below limit. Otherwise it returns ok = false, possibly before
// probing every changed target. After an ok price, sum returns the
// candidate's utilization sum.
func (p *rowPricer) price(utils, oldRow, cand []float64, limit float64) (max float64, ok bool) {
	for j, u := range utils {
		if cand[j] == oldRow[j] && u > max {
			max = u
		}
	}
	if max >= limit {
		return max, false
	}
	for j, f := range cand {
		u := utils[j]
		if f != oldRow[j] {
			u = p.score(j, f)
			if u > max {
				if max = u; max >= limit {
					return max, false
				}
			}
		}
		p.newU[j] = u
	}
	return max, true
}

// sum returns the utilization sum of the candidate price last accepted, in
// target order.
func (p *rowPricer) sum() float64 {
	var s float64
	for _, u := range p.newU {
		s += u
	}
	return s
}
