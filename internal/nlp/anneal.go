package nlp

import (
	"context"
	"math"
	"math/rand"

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
	first := func(tk *tracker, lim *limiter) (*layout.Layout, float64, int) {
		s := newTransferState(ev, inst, init.Clone())
		tk.best = s.objective()
		return s.anneal(rand.New(rand.NewSource(seed.Sub(opt.Seed, seed.StreamAnneal, 0))), opt, tk, lim)
	}
	restart := func(r int, _ *layout.Layout, tk *tracker, lim *limiter) (*layout.Layout, float64, int) {
		rng := rand.New(rand.NewSource(seed.Sub(opt.Seed, seed.StreamAnneal, int64(r))))
		s := newTransferState(ev, inst, init.Clone())
		s.perturb(rng, opt)
		return s.anneal(rng, opt, tk, lim)
	}
	return multiStart(ctx, "anneal", opt, 64, first, restart)
}

// anneal runs one full annealing schedule on s, noting its iterations on tk.
// It returns the best layout the chain visited, that layout's objective and
// the evaluations the state has spent.
func (s *transferState) anneal(rng *rand.Rand, opt Options, tk *tracker, lim *limiter) (*layout.Layout, float64, int) {
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
		tk.note(cur, accepted, temp, s.evals)
		temp *= annealCooling
	}
	return best, bestObj, s.evals
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
