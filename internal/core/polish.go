package core

import (
	"time"

	"dblayout/internal/layout"
)

// PolishRegular improves a regular layout by local search over regular rows:
// each pass re-places every object on the best of its candidate regular rows
// (the same consistent + balancing classes the Sec. 4.3 regularizer uses,
// evaluated against the *current* layout), until no object moves.
//
// This is an extension beyond the paper: its regularizer is one-shot greedy,
// and on strongly heterogeneous targets (e.g. a small SSD beside disks) a
// one-shot pass can lose much of the solver's gain because early objects are
// placed before the eventual shape of the layout is known. The polish pass
// recovers most of that loss while keeping the result regular and valid. It
// is enabled by default and can be disabled for ablation via
// Options.SkipPolish.
//
// Candidates are priced by a rowPricer, so a row that cannot beat the best
// one so far stops being probed as soon as that shows.
//
// The pass checks deadline between objects; a zero deadline means
// unbounded. Once the deadline has passed it stops and returns the layout
// polished so far, which is regular and valid, with cut set.
func PolishRegular(ev *layout.Evaluator, inst *layout.Instance, l *layout.Layout, deadline time.Time) (polished *layout.Layout, cut bool) {
	cur := l.Clone()
	sizes := inst.Sizes()
	caps := inst.Capacities()
	inc := ev.NewIncremental(cur)
	utils := inc.Utilizations(nil)

	// Same fleet-scale candidate bound as Regularize: paper-scale problems
	// keep the exhaustive all-widths scan.
	maxWidth := cur.M
	if cur.N*cur.M >= regularizeAutoPairs && maxWidth > regularizeMaxWidth {
		maxWidth = regularizeMaxWidth
	}
	rp := newRowPricer(inc, maxWidth)
	bytes := targetBytes(cur, sizes)

	const maxPasses = 8
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := 0; i < cur.N; i++ {
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				return cur, true
			}
			oldRow := cur.Row(i)
			curObj, curSum := pairOf(utils)

			var candidates [][]float64
			candidates = append(candidates, consistentCandidates(oldRow, maxWidth)...)
			candidates = append(candidates, balancingCandidates(utils, maxWidth)...)

			rp.setObject(i)
			bestMax, bestSum := curObj, curSum
			var bestRow []float64
			for _, cand := range candidates {
				if sameRow(cand, oldRow) || !capacityOK(cur, i, cand, sizes, caps, bytes) ||
					!constraintsOK(inst, cur, i, cand) {
					continue
				}
				// A row whose max reaches bestMax+1e-12 fails both
				// branches of the rule below, whatever its sum.
				obj, ok := rp.price(utils, oldRow, cand, bestMax+1e-12)
				if !ok {
					continue
				}
				if sum := rp.sum(); obj < bestMax-1e-12 || sum < bestSum-1e-9 {
					bestMax, bestSum = obj, sum
					bestRow = cand
				}
			}
			if bestRow != nil {
				inc.SetObjectRow(i, bestRow)
				utils = inc.Utilizations(utils[:0])
				refreshBytes(bytes, cur, oldRow, bestRow, sizes)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur, false
}

func pairOf(utils []float64) (max, sum float64) {
	for _, u := range utils {
		sum += u
		if u > max {
			max = u
		}
	}
	return max, sum
}

func sameRow(a, b []float64) bool {
	for j := range a {
		if a[j] != b[j] {
			return false
		}
	}
	return true
}
