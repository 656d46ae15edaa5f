package nlp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
	"dblayout/internal/rome"
	"dblayout/internal/seed"
)

// refScan is the reference candidate scan the pruned moveScan must agree
// with: it prices every candidate in full with TryMove and the (max, sum)
// pass over all targets, and keeps the lexicographically best improving one.
type refScan struct {
	s                *transferState
	bestMax, bestSum float64
	best             move
	found            bool
}

func (sc *refScan) consider(m move) {
	if m.delta <= layout.Epsilon || !sc.s.fits(m.obj, m.to, m.delta) {
		return
	}
	max, sum := sc.s.tryMove(m)
	if refAccepts(max, sum, sc.bestMax, sc.bestSum) {
		sc.bestMax, sc.bestSum = max, sum
		sc.best = m
		sc.found = true
	}
}

// refAccepts is the transfer scan's acceptance rule: a lower max, or a max
// within 1e-12 and a lower sum.
func refAccepts(max, sum, bestMax, bestSum float64) bool {
	return max < bestMax-1e-15 || (max < bestMax+1e-12 && sum < bestSum-1e-12)
}

func (sc *refScan) tryPair(i, src, to int, have float64) {
	fullTried := false
	for _, f := range stepFractions {
		delta := have * f
		if have-delta < 1e-3 {
			delta = have
		}
		if delta == have {
			if fullTried {
				continue
			}
			fullTried = true
		}
		sc.consider(move{obj: i, from: src, to: to, delta: delta})
	}
}

// refBestMove is bestMove over refScan: the pruned scan first when pruning
// engages, the full scan when it is dry or pruning is off.
func (s *transferState) refBestMove(curMax, curSum float64, opt Options) (move, bool) {
	src, _ := maxOf(s.utils)
	movable := opt.movableSet(s.l.N)
	if po, pt := opt.pruneBounds(s.l.N, s.l.M); po > 0 {
		var hot []hotObject
		s.inc.ForEachActive(src, func(obj int, lam float64) {
			if s.l.At(obj, src) > layout.Epsilon && movable(obj) {
				hot = append(hot, hotObject{obj: obj, lam: lam})
			}
		})
		sort.SliceStable(hot, func(a, b int) bool { return hot[a].lam > hot[b].lam })
		if len(hot) > po {
			hot = hot[:po]
		}
		var cand []int
		for j := range s.utils {
			if j != src {
				cand = append(cand, j)
			}
		}
		sort.SliceStable(cand, func(a, b int) bool { return s.utils[cand[a]] < s.utils[cand[b]] })
		if len(cand) > pt {
			cand = cand[:pt]
		}
		sc := refScan{s: s, bestMax: curMax, bestSum: curSum}
		for _, h := range hot {
			have := s.l.At(h.obj, src)
			for _, to := range cand {
				sc.tryPair(h.obj, src, to, have)
			}
		}
		if sc.found {
			return sc.best, true
		}
	}
	sc := refScan{s: s, bestMax: curMax, bestSum: curSum}
	for i := 0; i < s.l.N; i++ {
		have := s.l.At(i, src)
		if have <= layout.Epsilon || !movable(i) {
			continue
		}
		for to := 0; to < s.l.M; to++ {
			if to != src {
				sc.tryPair(i, src, to, have)
			}
		}
	}
	return sc.best, sc.found
}

// scanRun is one descent's observable course: every chosen move, the
// iteration count, the evaluation count and the final layout.
type scanRun struct {
	moves []move
	iters int
	evals int
	l     *layout.Layout
}

// descendWith repeats descend's loop, including its stall rule, choosing
// each move with pick.
func descendWith(s *transferState, opt Options, pick func(curMax, curSum float64) (move, bool)) scanRun {
	var r scanRun
	stall := 0
	for iter := 0; iter < opt.MaxIters; iter++ {
		curMax, curSum := s.objectivePair()
		best, ok := pick(curMax, curSum)
		if !ok {
			break
		}
		s.apply(best)
		r.moves = append(r.moves, best)
		r.iters++
		if newMax, _ := s.objectivePair(); curMax-newMax < tolerance*curMax {
			stall++
			if stall > 4*s.l.M {
				break
			}
		} else {
			stall = 0
		}
	}
	r.evals = s.evals
	r.l = s.l
	return r
}

// diffScans descends from init, and from restarts perturbed off the first
// descent's result as TransferSearch draws them, once with bestMove and once
// with refBestMove, and fails on the first difference in moves, iterations,
// evaluations or layout bits. It returns the number of moves compared.
func diffScans(t testing.TB, name string, inst *layout.Instance, init *layout.Layout, opt Options) int {
	t.Helper()
	opt = opt.withDefaults()
	ev := layout.NewEvaluator(inst)
	lim := newLimiterAt(context.Background(), time.Time{})
	compared := 0
	base := init
	for r := -1; r < opt.Restarts; r++ {
		pruned := newTransferState(ev, inst, base.Clone())
		ref := newTransferState(ev, inst, base.Clone())
		if r >= 0 {
			sd := seed.Sub(opt.Seed, seed.StreamTransfer, int64(r))
			pruned.perturb(rand.New(rand.NewSource(sd)), opt)
			ref.perturb(rand.New(rand.NewSource(sd)), opt)
		}
		got := descendWith(pruned, opt, func(curMax, curSum float64) (move, bool) {
			return pruned.bestMove(curMax, curSum, opt, lim)
		})
		want := descendWith(ref, opt, func(curMax, curSum float64) (move, bool) {
			return ref.refBestMove(curMax, curSum, opt)
		})
		where := fmt.Sprintf("%s, restart %d", name, r)
		for k := 0; k < len(got.moves) && k < len(want.moves); k++ {
			g, w := got.moves[k], want.moves[k]
			if g.obj != w.obj || g.from != w.from || g.to != w.to ||
				math.Float64bits(g.delta) != math.Float64bits(w.delta) {
				t.Fatalf("%s: move %d is %+v, reference %+v", where, k, g, w)
			}
		}
		if got.iters != want.iters || got.evals != want.evals {
			t.Fatalf("%s: %d iters, %d evals; reference %d iters, %d evals",
				where, got.iters, got.evals, want.iters, want.evals)
		}
		if !sameBits(got.l, want.l) {
			t.Fatalf("%s: layout bits differ from the reference", where)
		}
		compared += got.iters
		if r < 0 {
			base = got.l.Clone()
		}
	}
	return compared
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

// constrainedReplicated is Replicated(6, 6) under pins, bans and
// separations, on targets of 10 GiB each for 48 GiB of objects.
func constrainedReplicated() *layout.Instance {
	inst := layouttest.Replicated(6, 6)
	inst.Constraints = &layout.Constraints{
		Allow:    map[int][]int{0: {0, 1, 2}, 4: {3, 4, 5}, 12: {1, 3}},
		Deny:     map[int][]int{2: {0}, 6: {1, 2}, 10: {5}},
		Separate: [][2]int{{0, 1}, {4, 5}, {8, 9}, {12, 13}},
	}
	for _, t := range inst.Targets {
		t.Capacity = 10 << 30
	}
	return inst
}

// tightReplicated is Replicated(10, 4) with 21 GiB targets for 80 GiB of
// objects: most transfers overfill their destination.
func tightReplicated() *layout.Instance {
	inst := layouttest.Replicated(10, 4)
	for _, t := range inst.Targets {
		t.Capacity = 21 << 30
	}
	return inst
}

// TestTransferScanMatchesReference pins the pruned candidate scan to the
// reference that prices every candidate in full: the same moves, iterations,
// evaluation counts and layout bits, from the heuristic start and from SEE
// (whose symmetric plateau the sum tie-breaker has to leave), with and
// without fleet-scale pruning, under constraints and under tight capacity.
func TestTransferScanMatchesReference(t *testing.T) {
	type start struct {
		name string
		l    func(*layout.Instance) *layout.Layout
	}
	heuristic := start{"heuristic", func(inst *layout.Instance) *layout.Layout {
		l, err := layout.InitialLayout(inst)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}}
	see := start{"SEE", func(inst *layout.Instance) *layout.Layout { return layout.SEE(inst.N(), inst.M()) }}
	cases := []struct {
		name   string
		inst   *layout.Instance
		opt    Options
		starts []start
	}{
		{"Replicated(10,4)", layouttest.Replicated(10, 4), Options{Seed: 1, Restarts: 2}, []start{heuristic, see}},
		{"Replicated(10,10)", layouttest.Replicated(10, 10), Options{Seed: 1, Restarts: 1}, []start{heuristic, see}},
		{"Replicated(10,10) pruned", layouttest.Replicated(10, 10), Options{Seed: 3, Restarts: 1, PruneObjects: 4, PruneTargets: 3}, []start{heuristic, see}},
		{"constrained", constrainedReplicated(), Options{Seed: 1, Restarts: 2}, []start{heuristic}},
		{"tight capacity", tightReplicated(), Options{Seed: 1, Restarts: 2}, []start{heuristic, see}},
	}
	if !testing.Short() {
		cases = append(cases, struct {
			name   string
			inst   *layout.Instance
			opt    Options
			starts []start
		}{"Fleet(1024,256)", layouttest.Fleet(1024, 256), Options{Seed: 1, Restarts: NoRestarts, MaxIters: 300}, []start{heuristic}})
	}
	for _, c := range cases {
		for _, st := range c.starts {
			name := c.name + " from " + st.name
			t.Run(name, func(t *testing.T) {
				n := diffScans(t, name, c.inst, st.l(c.inst), c.opt)
				t.Logf("%d moves", n)
				if n == 0 {
					t.Fatal("no move compared")
				}
			})
		}
	}
}

// TestScanSkipIsExact pins the line the scan's skip draws: hopeless must
// hold for exactly the maxima at which the acceptance rule rejects every
// sum, including the maximum that lands on bestMax+1e-12 itself.
func TestScanSkipIsExact(t *testing.T) {
	for _, bestMax := range []float64{0, 1e-9, 0.37, 1, 1.5976, 4.75, 1e6} {
		sc := moveScan{bestMax: bestMax, bestSum: 10 * bestMax}
		line := bestMax + 1e-12
		for _, v := range []float64{
			bestMax, math.Nextafter(bestMax, math.Inf(-1)), bestMax - 1e-15,
			line, math.Nextafter(line, math.Inf(1)), math.Nextafter(line, math.Inf(-1)),
			bestMax + 2e-12, bestMax + 1,
		} {
			// A candidate can win at max v when some sum makes the
			// rule hold; -Inf is below every bestSum.
			canWin := refAccepts(v, math.Inf(-1), bestMax, sc.bestSum)
			if sc.hopeless(v) == canWin {
				t.Errorf("bestMax %.17g: hopeless(%.17g) = %v, want %v", bestMax, v, sc.hopeless(v), !canWin)
			}
		}
	}
}

// randomScanInstance builds a small random instance from seed: n objects on
// m disk or SSD targets, with random rates, sizes, run counts and
// overlaps, capacities from tight to loose, and, when constrain is set,
// random pins, bans and separations that still leave every object a target.
func randomScanInstance(rng *rand.Rand, n, m int, slack float64, constrain bool) (*layout.Instance, error) {
	ws := make([]*rome.Workload, n)
	objs := make([]layout.Object, n)
	var total int64
	for i := range ws {
		w := &rome.Workload{
			Name:     fmt.Sprintf("O%d", i),
			ReadSize: []float64{4096, 8192, 65536, 131072}[rng.Intn(4)],
			ReadRate: 400 * rng.Float64() * rng.Float64(),
			RunCount: float64(1 + rng.Intn(64)),
			Overlap:  make([]float64, n),
		}
		if rng.Intn(3) == 0 {
			w.WriteSize, w.WriteRate = 8192, 60*rng.Float64()
		}
		ws[i] = w
		size := int64(1+rng.Intn(8)) << 28
		objs[i] = layout.Object{Name: w.Name, Size: size, Kind: layout.KindTable}
		total += size
	}
	for i := range ws {
		ws[i].Overlap[i] = 1
		for k := i + 1; k < n; k++ {
			if rng.Intn(3) > 0 {
				v := rng.Float64()
				ws[i].Overlap[k], ws[k].Overlap[i] = v, v
			}
		}
	}
	set, err := rome.NewSet(ws...)
	if err != nil {
		return nil, err
	}
	disk, ssd := layouttest.DiskModel(), layouttest.SSDModel()
	capacity := int64(float64(total)*slack)/int64(m) + 1
	targets := make([]*layout.Target, m)
	for j := range targets {
		model := disk
		if rng.Intn(3) == 0 {
			model = ssd
		}
		targets[j] = &layout.Target{Name: fmt.Sprintf("t%d", j), Capacity: capacity, Model: model}
	}
	inst := &layout.Instance{Objects: objs, Targets: targets, Workloads: set}
	if constrain {
		c := &layout.Constraints{Allow: map[int][]int{}, Deny: map[int][]int{}}
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				c.Allow[i] = rng.Perm(m)[:1+rng.Intn(m)]
			case 1:
				c.Deny[i] = rng.Perm(m)[:rng.Intn(m)]
			}
		}
		for k := rng.Intn(n); k > 0; k-- {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				c.Separate = append(c.Separate, [2]int{a, b})
			}
		}
		inst.Constraints = c
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return inst, nil
}

// FuzzTransferScan compares the pruned candidate scan against the
// reference scan over small random instances: object and target counts,
// rates, capacities, constraints, pruning bounds and the restart seed all
// come from the fuzzer. Instances with no valid start are skipped.
func FuzzTransferScan(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3), uint8(100), false, uint8(0))
	f.Add(int64(2), uint8(12), uint8(5), uint8(20), true, uint8(0x23))
	f.Add(int64(3), uint8(9), uint8(4), uint8(30), true, uint8(0))
	f.Add(int64(4), uint8(2), uint8(2), uint8(255), false, uint8(0x11))
	// On these two a move onto the hottest target other than the source
	// lowers that target and wins, so the hottest target a move leaves
	// alone must exclude the destination as well as the source.
	f.Add(int64(-148), uint8(10), uint8(76), uint8(1), false, uint8(0x48))
	f.Add(int64(21), uint8(10), uint8(1), uint8(84), true, uint8(0))
	f.Fuzz(func(t *testing.T, sd int64, n, m, slack uint8, constrain bool, prune uint8) {
		nn, mm := 2+int(n%13), 2+int(m%6)
		rng := rand.New(rand.NewSource(sd))
		inst, err := randomScanInstance(rng, nn, mm, 1.05+float64(slack)/64, constrain)
		if err != nil {
			t.Skip(err)
		}
		init, err := layout.InitialLayout(inst)
		if err != nil {
			if see := layout.SEE(nn, mm); inst.ValidateLayout(see) == nil {
				init = see
			} else {
				t.Skip(err)
			}
		}
		opt := Options{Seed: sd, Restarts: 2, MaxIters: 400}
		if prune != 0 {
			opt.PruneObjects, opt.PruneTargets = 1+int(prune&0xf), 1+int(prune>>4)
		}
		diffScans(t, "fuzz", inst, init, opt)
	})
}
