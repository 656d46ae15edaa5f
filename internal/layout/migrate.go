package layout

import (
	"fmt"
	"sort"
)

// Move is one step of a migration plan: relocate a fraction of an object
// from one target to another.
type Move struct {
	Object   int
	From, To int
	Fraction float64
	Bytes    int64
}

// MigrationPlan computes the data movements needed to convert layout `from`
// into layout `to`: for each object, per-target decreases are greedily
// matched with increases (largest first), which minimizes the number of
// moves per object. Layout recommendations are only useful if an
// administrator can act on them; the plan quantifies the cost of doing so.
//
// The returned moves are in object order, which is NOT necessarily a safe
// execution order: under copy-then-commit semantics a move may transiently
// need destination space that a later move frees. Executors must schedule
// the plan with package migrate's BuildScript (which reorders it, stages
// capacity cycles through scratch space and reports moves that can never
// fit) rather than running it as returned.
func MigrationPlan(from, to *Layout, sizes []int64) ([]Move, error) {
	if from.N != to.N || from.M != to.M {
		return nil, fmt.Errorf("layout: migrating between %dx%d and %dx%d layouts", from.N, from.M, to.N, to.M)
	}
	if len(sizes) != from.N {
		return nil, fmt.Errorf("layout: %d sizes for %d objects", len(sizes), from.N)
	}
	var plan []Move
	for i := 0; i < from.N; i++ {
		type delta struct {
			target int
			amount float64
		}
		var dec, inc []delta
		for j := 0; j < from.M; j++ {
			d := to.At(i, j) - from.At(i, j)
			switch {
			case d > Epsilon:
				inc = append(inc, delta{j, d})
			case d < -Epsilon:
				dec = append(dec, delta{j, -d})
			}
		}
		sort.Slice(dec, func(a, b int) bool { return dec[a].amount > dec[b].amount })
		sort.Slice(inc, func(a, b int) bool { return inc[a].amount > inc[b].amount })

		di, ii := 0, 0
		for di < len(dec) && ii < len(inc) {
			amount := dec[di].amount
			if inc[ii].amount < amount {
				amount = inc[ii].amount
			}
			plan = append(plan, Move{
				Object:   i,
				From:     dec[di].target,
				To:       inc[ii].target,
				Fraction: amount,
				Bytes:    int64(amount * float64(sizes[i])),
			})
			dec[di].amount -= amount
			inc[ii].amount -= amount
			if dec[di].amount <= Epsilon {
				di++
			}
			if inc[ii].amount <= Epsilon {
				ii++
			}
		}
	}
	return plan, nil
}

// PlanBytes sums the data volume a migration plan moves.
func PlanBytes(plan []Move) int64 {
	var total int64
	for _, m := range plan {
		total += m.Bytes
	}
	return total
}
