package nlp

import (
	"context"
	"math/rand"
	"sort"

	"dblayout/internal/layout"
	"dblayout/internal/seed"
)

// TransferSearch minimizes the maximum target utilization by hill descent on
// mass-transfer moves: shift a fraction of one object's assignment from the
// most utilized target to another target. A move changes only two columns of
// the layout, so only two target utilizations are re-evaluated; all others
// are cached. After the descent converges, the search restarts from randomly
// perturbed copies of the descent's result (Options.Restarts independent
// rounds, fanned across Options.Workers goroutines) and keeps the best
// layout — mirroring the multi-start iteration of the paper's Fig. 4. Each
// restart draws its perturbation from its own seed stream, so the chosen
// layout does not depend on the worker count. Moves are scored on ev's
// incremental kernel.
//
// The initial layout must be valid; the returned layout always is.
//
// The search honours ctx and Options.Budget: between iterations every worker
// periodically checks for cancellation or budget exhaustion and, when either
// fires, the solve stops and returns the best layout found so far with
// Result.Stop classifying the reason. A nil ctx is treated as
// context.Background().
func TransferSearch(ctx context.Context, ev *layout.Evaluator, inst *layout.Instance, init *layout.Layout, opt Options) Result {
	opt = opt.withDefaults()
	first := func(tk *tracker, lim *limiter) (*layout.Layout, float64, int) {
		s := newTransferState(ev, inst, init.Clone())
		tk.best = s.objective()
		return s.descend(opt, tk, lim)
	}
	restart := func(r int, from *layout.Layout, tk *tracker, lim *limiter) (*layout.Layout, float64, int) {
		rng := rand.New(rand.NewSource(seed.Sub(opt.Seed, seed.StreamTransfer, int64(r))))
		s := newTransferState(ev, inst, from.Clone())
		s.perturb(rng, opt)
		return s.descend(opt, tk, lim)
	}
	return multiStart(ctx, "transfer", opt, 1, first, restart)
}

// transferState caches per-target utilizations and assigned bytes for the
// current layout so that a candidate move costs two O(active objects)
// delta-scores on the incremental kernel, with zero allocations. The kernel
// folds sub-Epsilon source residuals into the moved fraction (the dust
// clamp), so rows never lose mass and the bytes cache, which follows the
// kernel's effective moved fraction, never drifts from Layout.TargetBytes.
type transferState struct {
	inc   *layout.IncrementalEvaluator
	inst  *layout.Instance
	l     *layout.Layout
	utils []float64
	bytes []float64
	sizes []int64
	caps  []int64
	evals int

	// Scratch slices for the pruned candidate scan, reused across
	// bestMove calls to keep the steady-state search allocation-free.
	hot  []hotObject
	cand []int
}

// hotObject ranks an object active on the scan's source target by the
// kernel's cached request rate there.
type hotObject struct {
	obj int
	lam float64
}

func newTransferState(ev *layout.Evaluator, inst *layout.Instance, l *layout.Layout) *transferState {
	s := &transferState{
		inc:   ev.NewIncremental(l),
		inst:  inst,
		l:     l,
		sizes: inst.Sizes(),
		caps:  inst.Capacities(),
		evals: l.M,
		bytes: make([]float64, l.M),
	}
	s.utils = s.inc.Utilizations(nil)
	for j := range s.bytes {
		s.bytes[j] = l.TargetBytes(j, s.sizes)
	}
	return s
}

// objective returns the current max utilization.
func (s *transferState) objective() float64 {
	_, v := maxOf(s.utils)
	return v
}

// objectivePair returns (max, sum) of the cached utilizations. The sum is a
// lexicographic tie-breaker: symmetric layouts such as SEE are plateaus of
// the pure max objective (any single move leaves another equally-loaded
// target on top), and draining total load toward cheaper targets is what
// lets the search descend off them. MINOS-style continuous solvers do not
// need this because their interior steps move all coordinates at once.
func (s *transferState) objectivePair() (float64, float64) {
	var sum float64
	for _, u := range s.utils {
		sum += u
	}
	_, v := maxOf(s.utils)
	return v, sum
}

// move describes a candidate transfer.
type move struct {
	obj      int
	from, to int
	delta    float64 // fraction of the object to shift
}

// apply performs the move and refreshes the two affected columns.
func (s *transferState) apply(m move) {
	eff := s.inc.Apply(m.obj, m.from, m.to, m.delta)
	s.utils[m.from] = s.inc.Utilization(m.from)
	s.utils[m.to] = s.inc.Utilization(m.to)
	s.bytes[m.from] -= eff * float64(s.sizes[m.obj])
	s.bytes[m.to] += eff * float64(s.sizes[m.obj])
	s.evals += 2
}

// tryMove evaluates the (max, sum) objective after m without keeping it: the
// two affected targets are delta-scored against the kernel's cached state
// with no mutation and no allocation.
func (s *transferState) tryMove(m move) (float64, float64) {
	nf, nt := s.inc.TryMove(m.obj, m.from, m.to, m.delta)
	s.evals += 2

	obj, sum := 0.0, 0.0
	for j, u := range s.utils {
		switch j {
		case m.from:
			u = nf
		case m.to:
			u = nt
		}
		sum += u
		if u > obj {
			obj = u
		}
	}
	return obj, sum
}

// fits reports whether moving delta of object obj onto target to respects
// the capacity constraint and any administrative constraints.
func (s *transferState) fits(obj, to int, delta float64) bool {
	if s.bytes[to]+delta*float64(s.sizes[obj]) > float64(s.caps[to])*(1+1e-12) {
		return false
	}
	c := s.inst.Constraints
	if !c.Permits(obj, to) {
		return false
	}
	for _, k := range c.SeparatedFrom(obj) {
		if s.l.At(k, to) > layout.Epsilon {
			return false
		}
	}
	return true
}

// descend performs greedy improvement until convergence, cancellation, or
// exhaustion of the iteration budget, and returns the layout it reached, its
// objective and the evaluations the state has spent.
func (s *transferState) descend(opt Options, tk *tracker, lim *limiter) (*layout.Layout, float64, int) {
	stall := 0
	for iter := 0; iter < opt.MaxIters; iter++ {
		if lim.stop() != nil {
			break
		}
		curMax, curSum := s.objectivePair()
		best, ok := s.bestMove(curMax, curSum, opt, lim)
		if !ok {
			break
		}
		s.apply(best)
		tk.note(s.objective(), true, 0, s.evals)
		// Tie-breaker (sum-only) improvements are allowed to run for a
		// while to escape plateaus, but must eventually pay off on the
		// primary objective.
		if newMax, _ := s.objectivePair(); curMax-newMax < tolerance*curMax {
			stall++
			if stall > 4*s.l.M {
				break
			}
		} else {
			stall = 0
		}
	}
	return s.l.Clone(), s.objective(), s.evals
}

// moveScan accumulates the lexicographically best improving move found by a
// candidate scan (full or pruned) against a fixed baseline (max, sum)
// objective.
//
// It prices only the candidates that can still win. A move off src changes
// two utilizations, src's and its destination's, so its resulting max is at
// least the larger of its source-side score and the hottest target it
// leaves alone. When that bound already reaches bestMax+1e-12, neither
// branch of the acceptance rule can hold, so the destination is not probed;
// the O(M) sum is paid only by candidates whose max is below that line. The
// source side of a move depends only on the object and the step, so it is
// probed once per (object, step) and reused for every destination. The scan
// state does not change while it runs, so a reused probe has the bits a
// repeated one would, and the chosen move is the one that pricing every
// candidate in full chooses.
type moveScan struct {
	s                *transferState
	src              int
	bestMax, bestSum float64
	best             move
	found            bool

	// hot1 is the largest utilization among the targets other than src,
	// at target hot1At (-1 when all are 0), and hot2 the largest among
	// the rest: a move onto hot1At leaves hot2 as its hottest untouched
	// target, any other move hot1.
	hot1, hot2 float64
	hot1At     int

	// The current object's steps: the distinct fractions of its share of
	// src that one move may shift, in stepFractions order, and the
	// source-side score of each once it has been probed.
	obj    int
	steps  int
	delta  [len(stepFractions)]float64
	from   [len(stepFractions)]float64
	priced [len(stepFractions)]bool
}

// newScan starts a candidate scan off src against the baseline (curMax,
// curSum), finding the two hottest targets other than src once.
func (s *transferState) newScan(src int, curMax, curSum float64) moveScan {
	sc := moveScan{s: s, src: src, bestMax: curMax, bestSum: curSum, hot1At: -1}
	for j, u := range s.utils {
		switch {
		case j == src:
		case u > sc.hot1:
			sc.hot1, sc.hot2, sc.hot1At = u, sc.hot1, j
		case u > sc.hot2:
			sc.hot2 = u
		}
	}
	return sc
}

// hopeless reports whether a candidate whose resulting max is at least bound
// can no longer win: neither branch of the acceptance rule in consider holds
// for it, whatever its sum.
func (sc *moveScan) hopeless(bound float64) bool {
	return bound >= sc.bestMax+1e-12
}

// setObject makes object i, holding have of src, the scan's current object:
// it lists the object's steps, folding the dust clamp's whole-assignment
// duplicates into one, and forgets the previous object's source probes.
func (sc *moveScan) setObject(i int, have float64) {
	sc.obj, sc.steps = i, 0
	fullTried := false
	for _, f := range stepFractions {
		delta := have * f
		if have-delta < 1e-3 {
			delta = have // avoid leaving dust fractions behind
		}
		if delta == have {
			if fullTried {
				continue
			}
			fullTried = true
		}
		if delta <= layout.Epsilon {
			continue
		}
		sc.delta[sc.steps] = sc.s.inc.EffectiveDelta(i, sc.src, delta)
		sc.priced[sc.steps] = false
		sc.steps++
	}
}

// tryPair prices every step of moving the current object from src to to.
func (sc *moveScan) tryPair(to int) {
	for k := 0; k < sc.steps; k++ {
		sc.consider(to, k)
	}
}

// consider prices the current object's step k onto target to, as far as it
// can still win, and keeps it if it improves the running best under the
// lexicographic (max, sum) order. Evals counts the two utilizations of every
// candidate the scan considers, probed or not.
func (sc *moveScan) consider(to, k int) {
	s, i, delta := sc.s, sc.obj, sc.delta[k]
	if !s.fits(i, to, delta) {
		return
	}
	s.evals += 2
	if !sc.priced[k] {
		sc.from[k] = s.inc.ScoreObjectFrac(sc.src, i, s.l.At(i, sc.src)-delta)
		sc.priced[k] = true
	}
	nf := sc.from[k]
	bound := sc.hot1
	if to == sc.hot1At {
		bound = sc.hot2
	}
	if nf > bound {
		bound = nf
	}
	if sc.hopeless(bound) {
		return
	}
	nt := s.inc.ScoreObjectFrac(to, i, s.l.At(i, to)+delta)
	max := bound
	if nt > max {
		max = nt
	}
	if sc.hopeless(max) {
		return
	}
	var sum float64
	for j, u := range s.utils {
		switch j {
		case sc.src:
			u = nf
		case to:
			u = nt
		}
		sum += u
	}
	if max < sc.bestMax-1e-15 || sum < sc.bestSum-1e-12 {
		sc.bestMax, sc.bestSum = max, sum
		sc.best = move{obj: i, from: sc.src, to: to, delta: delta}
		sc.found = true
	}
}

// bestMove scans candidate transfers off the most utilized target and
// returns the one with the lexicographically lowest resulting (max, sum)
// objective, if it improves on the current one. The scan itself checks the
// limiter between objects so that cancellation interrupts even a single
// iteration on very large instances; an interrupted scan reports no move,
// which makes the caller stop with the pre-iteration layout intact.
//
// When Options.pruneBounds engages (fleet-scale problems, or pruning forced
// by the caller), a bounded hottest-objects x least-utilized-targets scan
// runs first; a full scan runs only when the pruned scan finds nothing, so
// the search can declare convergence only in states the unpruned search
// would also accept.
func (s *transferState) bestMove(curMax, curSum float64, opt Options, lim *limiter) (move, bool) {
	src, _ := maxOf(s.utils)
	movable := opt.movableSet(s.l.N)
	if po, pt := opt.pruneBounds(s.l.N, s.l.M); po > 0 {
		mv, found, interrupted := s.scanPruned(src, curMax, curSum, opt, movable, lim, po, pt)
		if found || interrupted {
			return mv, found
		}
		// Pruning-soundness fallback: the bounded scan is dry, so pay
		// for one exhaustive scan before letting the descent stop here.
	}
	return s.scanFull(src, curMax, curSum, opt, movable, lim)
}

// scanFull prices every (object on src) x (other target) x (step fraction)
// candidate.
func (s *transferState) scanFull(src int, curMax, curSum float64, opt Options, movable func(int) bool, lim *limiter) (move, bool) {
	sc := s.newScan(src, curMax, curSum)
	for i := 0; i < s.l.N; i++ {
		if lim.stop() != nil {
			return move{}, false
		}
		have := s.l.At(i, src)
		if have <= layout.Epsilon || !movable(i) {
			continue
		}
		sc.setObject(i, have)
		for to := 0; to < s.l.M; to++ {
			if to != src {
				sc.tryPair(to)
			}
		}
	}
	return sc.best, sc.found
}

// scanPruned prices only the po hottest movable objects on src against the
// pt least-utilized other targets. Both rankings are deterministic: stable
// sorts over ascending-id inputs break rate and utilization ties toward the
// lower id, so pruned solves stay bit-identical at any worker count. The
// third return distinguishes a dry scan (fall through to scanFull) from a
// limiter interrupt (stop immediately).
func (s *transferState) scanPruned(src int, curMax, curSum float64, opt Options, movable func(int) bool, lim *limiter, po, pt int) (mv move, found, interrupted bool) {
	s.hot = s.hot[:0]
	s.inc.ForEachActive(src, func(obj int, lam float64) {
		if s.l.At(obj, src) > layout.Epsilon && movable(obj) {
			s.hot = append(s.hot, hotObject{obj: obj, lam: lam})
		}
	})
	sort.SliceStable(s.hot, func(a, b int) bool { return s.hot[a].lam > s.hot[b].lam })
	if len(s.hot) > po {
		s.hot = s.hot[:po]
	}

	s.cand = s.cand[:0]
	for j := range s.utils {
		if j != src {
			s.cand = append(s.cand, j)
		}
	}
	sort.SliceStable(s.cand, func(a, b int) bool { return s.utils[s.cand[a]] < s.utils[s.cand[b]] })
	if len(s.cand) > pt {
		s.cand = s.cand[:pt]
	}

	sc := s.newScan(src, curMax, curSum)
	for _, h := range s.hot {
		if lim.stop() != nil {
			return move{}, false, true
		}
		sc.setObject(h.obj, s.l.At(h.obj, src))
		for _, to := range s.cand {
			sc.tryPair(to)
		}
	}
	return sc.best, sc.found, false
}

// perturb randomly reassigns a few objects' placements to escape local
// minima between restarts. Capacity is respected; integrity is preserved
// because whole-row fractions are moved.
func (s *transferState) perturb(rng *rand.Rand, opt Options) {
	n := s.l.N
	movable := opt.movableSet(n)
	kicks := 1 + n/8
	for k := 0; k < kicks; k++ {
		i := rng.Intn(n)
		if !movable(i) {
			continue
		}
		from := -1
		for _, j := range s.l.Targets(i) {
			if from < 0 || s.l.At(i, j) > s.l.At(i, from) {
				from = j
			}
		}
		if from < 0 {
			continue
		}
		to := rng.Intn(s.l.M)
		if to == from {
			continue
		}
		delta := s.l.At(i, from)
		if !s.fits(i, to, delta) {
			continue
		}
		s.apply(move{obj: i, from: from, to: to, delta: delta})
	}
}
