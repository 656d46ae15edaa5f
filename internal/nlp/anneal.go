package nlp

import (
	"context"
	"math"
	"math/rand"
	"time"

	"dblayout/internal/layout"
	"dblayout/internal/seed"
)

// The annealing schedule: the start temperature as a fraction of the initial
// objective, and the geometric cooling factor per iteration.
const (
	annealStartTemp = 0.10
	annealCooling   = 0.999
)

// Anneal runs simulated annealing over random transfer moves. It explores
// more aggressively than TransferSearch at the cost of more evaluations, and
// exists mainly for the ablation study comparing solver strategies (the
// related-work Rubio et al. system used simulated annealing for a similar
// placement problem).
//
// Options.Restarts adds that many further full annealing chains, each from a
// randomly perturbed copy of the initial layout with a fresh cooling
// schedule, fanned across Options.Workers goroutines; the best layout over
// all chains wins. Each chain draws from its own seed stream, so the run is
// reproducible from Options.Seed alone at any worker count (Seed 0 is the
// deterministic default seed; the global math/rand state is never
// consulted).
//
// The annealing loops honour ctx and Options.Budget, polling every few dozen
// moves (annealing moves are two evaluations each, so per-move checks would
// dominate); on cancellation or budget exhaustion the solve stops and
// returns the best layout so far with Result.Stop set. A nil ctx is treated
// as context.Background().
func Anneal(ctx context.Context, ev *layout.Evaluator, inst *layout.Instance, init *layout.Layout, opt Options) Result {
	opt = opt.withDefaults()
	start := time.Now()
	deadline := budgetDeadline(opt.Budget)
	lim := newLimiterAt(ctx, deadline).every(64)

	s := newTransferState(ev, inst, init.Clone())
	tk := newTracker("anneal", opt.Trace, s.objective())
	rng := rand.New(rand.NewSource(seed.Sub(opt.Seed, seed.StreamAnneal, 0)))
	res := Result{Workers: opt.workers()}
	best, bestObj := annealChain(s, rng, opt, tk, lim, 0, &res)
	res.Evals = s.evals
	res.Stop = lim.stopped

	var outs []restartOutcome
	if lim.stopped == nil {
		outs = runRestarts(ctx, deadline, opt, func(r int, rlim *limiter) restartOutcome {
			rlim.every(64)
			rng := rand.New(rand.NewSource(seed.Sub(opt.Seed, seed.StreamAnneal, int64(r))))
			rs := newTransferState(ev, inst, init.Clone())
			rs.perturb(rng, opt)
			rtk := newRestartTracker("anneal", rs.objective(), opt.Trace != nil)
			var rr Result
			bl, bo := annealChain(rs, rng, opt, rtk, rlim, r, &rr)
			return restartOutcome{
				layout: bl, obj: bo,
				iters: rr.Iters, evals: rs.evals,
				tk: rtk, stop: rlim.stopped,
			}
		})
	}
	best, bestObj = mergeOutcomes(&res, tk, outs, best, bestObj, lim.stopped)

	res.Layout = best
	res.Objective = bestObj
	res.Elapsed = time.Since(start)
	tk.finish(&res)
	return res
}

// annealChain runs one full annealing schedule on s, recording iterations on
// tk (tagged with the restart index) and effort on res. It returns the best
// layout the chain visited and its objective.
func annealChain(s *transferState, rng *rand.Rand, opt Options, tk *tracker, lim *limiter, restart int, res *Result) (*layout.Layout, float64) {
	cur := s.objective()
	best := s.l.Clone()
	bestObj := cur
	temp := annealStartTemp * cur

	movable := opt.movableSet(s.l.N)
	for iter := 0; iter < opt.MaxIters; iter++ {
		if lim.stop() != nil {
			break
		}
		m, ok := s.randomMove(rng, movable)
		if !ok {
			continue
		}
		obj, _ := s.tryMove(m)
		res.Iters++
		delta := obj - cur
		accepted := delta <= 0 || (temp > 0 && rng.Float64() < math.Exp(-delta/temp))
		if accepted {
			s.apply(m)
			cur = obj
			if cur < bestObj {
				bestObj = cur
				best = s.l.Clone()
			}
		}
		tk.note(restart, cur, accepted, temp, s.evals)
		temp *= annealCooling
	}
	return best, bestObj
}

// randomMove proposes a feasible random transfer of part of a random
// object's assignment between two targets.
func (s *transferState) randomMove(rng *rand.Rand, movable func(int) bool) (move, bool) {
	for attempt := 0; attempt < 16; attempt++ {
		i := rng.Intn(s.l.N)
		if !movable(i) {
			continue
		}
		ts := s.l.Targets(i)
		if len(ts) == 0 {
			continue
		}
		from := ts[rng.Intn(len(ts))]
		to := rng.Intn(s.l.M)
		if to == from {
			continue
		}
		frac := []float64{1, 0.5, 0.25}[rng.Intn(3)]
		delta := s.l.At(i, from) * frac
		if s.l.At(i, from)-delta < 1e-3 {
			delta = s.l.At(i, from)
		}
		if delta <= layout.Epsilon || !s.fits(i, to, delta) {
			continue
		}
		return move{obj: i, from: from, to: to, delta: delta}, true
	}
	return move{}, false
}
