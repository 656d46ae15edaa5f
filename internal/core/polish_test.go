package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
	"dblayout/internal/nlp"
)

// refEvalCandidate prices a candidate row in full: it copies the current
// utilizations, probes every target whose cell changes, and takes the max
// over all targets.
func refEvalCandidate(inc *layout.IncrementalEvaluator, utils []float64, i int, oldRow, cand []float64) ([]float64, float64) {
	newUtils := append([]float64(nil), utils...)
	for j := range cand {
		if oldRow[j] != cand[j] {
			newUtils[j] = inc.ScoreObjectFrac(j, i, cand[j])
		}
	}
	obj := 0.0
	for _, u := range newUtils {
		if u > obj {
			obj = u
		}
	}
	return newUtils, obj
}

func refSum(utils []float64) float64 {
	var s float64
	for _, u := range utils {
		s += u
	}
	return s
}

// refPolish is the reference polish pass PolishRegular must agree with: it
// prices every candidate row in full with refEvalCandidate.
func refPolish(ev *layout.Evaluator, inst *layout.Instance, l *layout.Layout) *layout.Layout {
	cur := l.Clone()
	sizes, caps := inst.Sizes(), inst.Capacities()
	inc := ev.NewIncremental(cur)
	utils := inc.Utilizations(nil)
	maxWidth := cur.M
	if cur.N*cur.M >= regularizeAutoPairs && maxWidth > regularizeMaxWidth {
		maxWidth = regularizeMaxWidth
	}
	for pass := 0; pass < 8; pass++ {
		improved := false
		for i := 0; i < cur.N; i++ {
			oldRow := cur.Row(i)
			curObj, curSum := pairOf(utils)
			candidates := append(consistentCandidates(oldRow, maxWidth), balancingCandidates(utils, maxWidth)...)
			bestMax, bestSum := curObj, curSum
			var bestRow, bestUtils []float64
			for _, cand := range candidates {
				if sameRow(cand, oldRow) || !capacityOK(cur, i, cand, sizes, caps) ||
					!constraintsOK(inst, cur, i, cand) {
					continue
				}
				newUtils, obj := refEvalCandidate(inc, utils, i, oldRow, cand)
				sum := refSum(newUtils)
				if obj < bestMax-1e-12 || (obj < bestMax+1e-12 && sum < bestSum-1e-9) {
					bestMax, bestSum = obj, sum
					bestRow, bestUtils = cand, newUtils
				}
			}
			if bestRow != nil {
				inc.SetObjectRow(i, bestRow)
				utils = bestUtils
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur
}

// refRegularize is the reference Sec. 4.3 regularizer Regularize must agree
// with: it prices every candidate row in full with refEvalCandidate.
func refRegularize(ev *layout.Evaluator, inst *layout.Instance, solved *layout.Layout) (*layout.Layout, error) {
	n, m := solved.N, solved.M
	l := solved.Clone()
	sizes, caps := inst.Sizes(), inst.Capacities()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	loads := ev.ObjectLoads(solved)
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]] > loads[order[b]] })
	maxWidth := m
	if n*m >= regularizeAutoPairs && maxWidth > regularizeMaxWidth {
		maxWidth = regularizeMaxWidth
	}
	inc := ev.NewIncremental(l)
	utils := inc.Utilizations(nil)
	for _, i := range order {
		if l.RowRegular(i) {
			continue
		}
		oldRow := l.Row(i)
		candidates := append(consistentCandidates(oldRow, maxWidth), balancingCandidates(utils, maxWidth)...)
		bestObj := -1.0
		var bestRow, bestUtils []float64
		for _, cand := range candidates {
			if !capacityOK(l, i, cand, sizes, caps) || !constraintsOK(inst, l, i, cand) {
				continue
			}
			newUtils, obj := refEvalCandidate(inc, utils, i, oldRow, cand)
			if bestObj < 0 || obj < bestObj {
				bestObj, bestRow, bestUtils = obj, cand, newUtils
			}
		}
		if bestRow == nil {
			return nil, fmt.Errorf("no valid regular layout for object %d", i)
		}
		inc.SetObjectRow(i, bestRow)
		utils = bestUtils
	}
	return l, nil
}

func sameBits(a, b *layout.Layout) bool {
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.M; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// tightReplicated is Replicated(10, 4) with 21 GiB targets for 80 GiB of
// objects: most candidate rows overfill a target.
func tightReplicated() *layout.Instance {
	inst := layouttest.Replicated(10, 4)
	for _, t := range inst.Targets {
		t.Capacity = 21 << 30
	}
	return inst
}

// TestRowScansMatchReference pins Regularize and PolishRegular, which price
// candidate rows only as far as they can still win and remember each
// object's (target, fraction) probes, to the reference passes that price
// every candidate in full: the same layout bits from the heuristic layout,
// from SEE where it is valid, and from a transfer solve's layout, under
// constraints and under tight capacity. At fleet scale, where candidate
// widths are bounded, only Regularize is compared: fleet-scale advises skip
// the polish, and a full-pricing polish there runs for minutes.
func TestRowScansMatchReference(t *testing.T) {
	cases := []struct {
		name   string
		inst   *layout.Instance
		opt    nlp.Options
		polish bool
	}{
		{"Replicated(10,4)", layouttest.Replicated(10, 4), nlp.Options{Seed: 1}, true},
		{"Replicated(10,10)", layouttest.Replicated(10, 10), nlp.Options{Seed: 1}, true},
		{"constrained", constrainedReplicated(), nlp.Options{Seed: 1}, true},
		{"tight capacity", tightReplicated(), nlp.Options{Seed: 1}, true},
		{"Fleet(1024,256)", layouttest.Fleet(1024, 256), fleetOptions().NLP, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ev := layout.NewEvaluator(c.inst)
			heuristic, err := layout.InitialLayout(c.inst)
			if err != nil {
				t.Fatal(err)
			}
			starts := map[string]*layout.Layout{
				"heuristic": heuristic,
				"solver":    nlp.TransferSearch(context.Background(), ev, c.inst, heuristic, c.opt).Layout,
			}
			if see := layout.SEE(c.inst.N(), c.inst.M()); c.inst.ValidateLayout(see) == nil {
				starts["SEE"] = see
			}
			moved := false
			for name, l := range starts {
				reg, err := Regularize(ev, c.inst, l)
				want, werr := refRegularize(ev, c.inst, l)
				if (err == nil) != (werr == nil) {
					t.Fatalf("%s: Regularize error %v, reference %v", name, err, werr)
				}
				if err != nil {
					continue
				}
				if !sameBits(reg, want) {
					t.Fatalf("%s: Regularize layout bits differ from the reference", name)
				}
				if !c.polish {
					moved = moved || !sameBits(reg, l)
					continue
				}
				pol, _ := PolishRegular(ev, c.inst, reg, time.Time{})
				if !sameBits(pol, refPolish(ev, c.inst, reg)) {
					t.Fatalf("%s: PolishRegular layout bits differ from the reference", name)
				}
				moved = moved || !sameBits(pol, reg)
			}
			if !moved {
				t.Fatal("no start moved")
			}
		})
	}
}

// TestRowPricerLimitIsExclusive pins the line price draws: a candidate whose
// max equals the limit is turned away, the next float above it lets the
// candidate through with the reference's max and sum bits, for every
// candidate row of every object of a regularized layout.
func TestRowPricerLimitIsExclusive(t *testing.T) {
	inst := layouttest.Replicated(3, 5)
	ev := layout.NewEvaluator(inst)
	init, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := Regularize(ev, inst, init)
	if err != nil {
		t.Fatal(err)
	}
	inc := ev.NewIncremental(reg.Clone())
	utils := inc.Utilizations(nil)
	rp := newRowPricer(inc, reg.M)
	checked := 0
	for i := 0; i < reg.N; i++ {
		oldRow := reg.Row(i)
		rp.setObject(i)
		for _, cand := range append(consistentCandidates(oldRow, reg.M), balancingCandidates(utils, reg.M)...) {
			wantU, want := refEvalCandidate(inc, utils, i, oldRow, cand)
			if _, ok := rp.price(utils, oldRow, cand, want); ok {
				t.Fatalf("object %d, row %v: max %.17g passed a limit equal to it", i, cand, want)
			}
			got, ok := rp.price(utils, oldRow, cand, math.Nextafter(want, math.Inf(1)))
			if !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("object %d, row %v: price (%.17g, %v), reference max %.17g", i, cand, got, ok, want)
			}
			if s, ws := rp.sum(), refSum(wantU); math.Float64bits(s) != math.Float64bits(ws) {
				t.Fatalf("object %d, row %v: sum %.17g, reference %.17g", i, cand, s, ws)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no candidate checked")
	}
}
