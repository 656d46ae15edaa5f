package nlp

import (
	"context"
	"math"
	"math/rand"

	"dblayout/internal/layout"
	"dblayout/internal/seed"
)

// ProjectedGradient minimizes the maximum target utilization by
// finite-difference gradient descent on a softmax-smoothed objective, with
// Euclidean projection of every row onto the probability simplex after each
// step and a capacity-repair pass. It evaluates O(N*M) target utilizations
// per gradient, so it is intended for small and mid-size instances and as a
// cross-check on TransferSearch. It does not honour administrative
// constraints (Instance.Constraints); constrained instances need
// TransferSearch or Anneal.
//
// The base descent is fully deterministic. Options.Restarts re-descends from
// that many randomly perturbed copies of the initial layout (each from its
// own seed stream, fanned across Options.Workers goroutines) and keeps the
// best layout, so the result does not depend on the worker count.
//
// The descents honour ctx and Options.Budget: each checks for cancellation
// or budget exhaustion between gradient iterations and stops with the best
// layout so far, classifying the reason in Result.Stop. A nil ctx is treated
// as context.Background().
func ProjectedGradient(ctx context.Context, ev *layout.Evaluator, inst *layout.Instance, init *layout.Layout, opt Options) Result {
	opt = opt.withDefaults()
	first := func(tk *tracker, lim *limiter) (*layout.Layout, float64, int) {
		l := init.Clone()
		_, cur := maxOf(ev.Utilizations(l))
		tk.best = cur
		best, obj, evals := gradientDescend(ev, inst, l, cur, opt, tk, lim)
		return best, obj, evals + l.M
	}
	restart := func(r int, _ *layout.Layout, tk *tracker, lim *limiter) (*layout.Layout, float64, int) {
		rng := rand.New(rand.NewSource(seed.Sub(opt.Seed, seed.StreamProjGrad, int64(r))))
		s := newTransferState(ev, inst, init.Clone())
		s.perturb(rng, opt)
		best, obj, evals := gradientDescend(ev, inst, s.l, s.objective(), opt, tk, lim)
		return best, obj, evals + s.evals
	}
	return multiStart(ctx, "projected-gradient", opt, 1, first, restart)
}

// gradientDescend runs the projected-gradient descent from l (whose current
// max utilization the caller supplies) until convergence, the iteration
// bound, or a limiter stop. It owns l and returns the final layout, its
// objective, and the evaluations spent.
//
// Every finite-difference probe is an O(active objects) delta-score on the
// incremental kernel; the kernel is rebuilt whenever the line search accepts
// a new layout (one rebuild per accepted step versus N*M probes per
// gradient).
func gradientDescend(ev *layout.Evaluator, inst *layout.Instance, l *layout.Layout, cur float64, opt Options, tk *tracker, lim *limiter) (*layout.Layout, float64, int) {
	sizes := inst.Sizes()
	caps := inst.Capacities()
	step := 0.25
	const h = 1e-4
	evals := 0

	inc := ev.NewIncremental(l)
	// Take the probe baseline from the kernel, in its summation order, so
	// finite differences subtract like from like.
	utils := inc.Utilizations(nil)

	for iter := 0; iter < opt.MaxIters; iter++ {
		if lim.stop() != nil {
			break
		}
		// Softmax weights sharpen around the most utilized targets.
		beta := 25.0
		if cur > 0 {
			beta /= cur
		}
		var wsum float64
		w := make([]float64, l.M)
		_, umax := maxOf(utils)
		for j, u := range utils {
			w[j] = math.Exp(beta * (u - umax))
			wsum += w[j]
		}
		for j := range w {
			w[j] /= wsum
		}

		// Finite-difference gradient: bumping L[i][j] changes only
		// target j's utilization.
		grad := make([]float64, l.N*l.M)
		for j := 0; j < l.M; j++ {
			if lim.stop() != nil {
				break // abandon this gradient; the iteration check exits
			}
			if w[j] < 1e-6 {
				continue // negligible contribution to the softmax
			}
			for i := 0; i < l.N; i++ {
				up := inc.ScoreObjectFrac(j, i, l.At(i, j)+h)
				evals++
				grad[i*l.M+j] = w[j] * (up - utils[j]) / h
			}
		}

		improved := false
		for try := 0; try < 8; try++ {
			if lim.stop() != nil {
				break // abandon the line search; the iteration check exits
			}
			cand := l.Clone()
			for i := 0; i < cand.N; i++ {
				row := cand.Row(i)
				for j := 0; j < cand.M; j++ {
					row[j] -= step * grad[i*cand.M+j]
				}
				ProjectSimplex(row)
				cand.SetRow(i, row)
			}
			if !repairCapacity(cand, sizes, caps) {
				step /= 2
				continue
			}
			cu := ev.Utilizations(cand)
			evals += cand.M
			if _, cv := maxOf(cu); cv < cur-1e-12 {
				l = cand
				inc = ev.NewIncremental(l)
				utils = inc.Utilizations(cu[:0])
				if cur-cv < tolerance*cur {
					cur = cv
					iter = opt.MaxIters // converged
				} else {
					cur = cv
				}
				improved = true
				step *= 1.2
				break
			}
			step /= 2
		}
		tk.note(cur, improved, 0, evals)
		if !improved || step < 1e-6 {
			break
		}
	}
	return l, cur, evals
}

// repairCapacity rescales assignments so no target is over capacity,
// redistributing the displaced fractions to targets with free space. It
// returns false if no feasible redistribution was found.
func repairCapacity(l *layout.Layout, sizes, caps []int64) bool {
	for pass := 0; pass < 2*l.M; pass++ {
		worst, worstRatio := -1, 1.0
		bytes := make([]float64, l.M)
		for j := 0; j < l.M; j++ {
			bytes[j] = l.TargetBytes(j, sizes)
			if r := bytes[j] / float64(caps[j]); r > worstRatio*(1+1e-12) {
				worst, worstRatio = j, r
			}
		}
		if worst < 0 {
			return true
		}
		scale := 1 / worstRatio
		for i := 0; i < l.N; i++ {
			v := l.At(i, worst)
			if v <= layout.Epsilon {
				continue
			}
			removed := v * (1 - scale)
			l.Set(i, worst, v*scale)
			// Redistribute to the target with the most free bytes.
			best, bestFree := -1, 0.0
			for j := 0; j < l.M; j++ {
				if j == worst {
					continue
				}
				free := float64(caps[j]) - l.TargetBytes(j, sizes)
				if free > bestFree {
					best, bestFree = j, free
				}
			}
			if best < 0 || bestFree < removed*float64(sizes[i]) {
				return false
			}
			l.Set(i, best, l.At(i, best)+removed)
		}
	}
	// Verify.
	for j := 0; j < l.M; j++ {
		if l.TargetBytes(j, sizes) > float64(caps[j])*(1+1e-9) {
			return false
		}
	}
	return true
}
