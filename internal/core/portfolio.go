package core

import (
	"context"
	"math"
	"sync"

	"dblayout/internal/layout"
	"dblayout/internal/nlp"
)

// racer is the call shape every nlp solver shares.
type racer func(ctx context.Context, ev *layout.Evaluator, inst *layout.Instance, init *layout.Layout, opt nlp.Options) nlp.Result

// portfolioRacers returns the solvers SolverPortfolio races, in the fixed
// order that breaks objective ties. Projected gradient joins only when the
// instance has no administrative constraints (it cannot honour them).
func (a *Advisor) portfolioRacers() []racer {
	racers := []racer{nlp.TransferSearch, nlp.Anneal}
	if a.inst.Constraints == nil {
		racers = append(racers, nlp.ProjectedGradient)
	}
	return racers
}

// racerOutcome is one portfolio member's finished solve, its score and the
// post-processing it was scored on (see score), and the trace events it
// buffered when a user hook is installed (racers never call the user hook
// directly — it is not safe for concurrent use).
type racerOutcome struct {
	res    nlp.Result
	score  float64
	post   *processed
	events []nlp.TraceEvent
}

// portfolioSolve races the portfolio's solvers concurrently from the same
// initial layout and merges their results deterministically:
//
//   - the racer with the strictly lowest score wins: the objective its
//     layout reaches after the round's own post-processing (see score);
//     ties keep the earlier racer in portfolioRacers order, so the choice
//     never depends on scheduling. The winner's post-processing comes back
//     with the result, so the round does not repeat it;
//   - Iters and Evals sum the whole portfolio's effort, while Restarts,
//     Workers and Trajectory describe the winning racer's run;
//   - buffered trace events are delivered after the race in racer order,
//     with globally renumbered Iter, monotone Best, and cumulative Evals —
//     the same stream on every run;
//   - Stop is the context error if any racer saw one, ErrBudgetExceeded if
//     every racer was truncated by the budget, and nil otherwise.
//
// Each racer draws from its own seed stream (the solvers key their RNGs on
// distinct stream constants under the shared derived seed), so the race is
// reproducible from the seed alone. Cost-model panics on racer goroutines
// are captured and re-raised here so safeSolve's recover classifies them as
// ErrModelFailure exactly as in a serial solve.
func (a *Advisor) portfolioSolve(r *run, init *layout.Layout, nopt nlp.Options) (nlp.Result, *processed) {
	racers := a.portfolioRacers()
	userTrace := nopt.Trace
	outs := make([]racerOutcome, len(racers))

	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal interface{}
	)
	for i, solve := range racers {
		wg.Add(1)
		go func(i int, solve racer) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = p
					}
					panicMu.Unlock()
				}
			}()
			opt := nopt
			if userTrace != nil {
				out := &outs[i]
				opt.Trace = func(ev nlp.TraceEvent) { out.events = append(out.events, ev) }
			}
			outs[i].res = solve(r.ctx, a.ev, a.inst, init, opt)
			outs[i].score, outs[i].post = a.score(r, outs[i].res)
		}(i, solve)
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	return mergeRace(outs, userTrace)
}

// score is the objective res's layout reaches after this round's own
// post-processing, returned with that post-processing. A round that skips
// post-processing (SkipRegularization, or a cancelled solve) scores the raw
// solver objective and returns none. A layout whose post-processing fails
// scores +Inf.
func (a *Advisor) score(r *run, res nlp.Result) (float64, *processed) {
	if a.opt.SkipRegularization || isContextErr(res.Stop) {
		return res.Objective, nil
	}
	p := a.postProcess(r, res.Layout)
	if p.err != nil {
		return math.Inf(1), &p
	}
	return p.obj, &p
}

// mergeRace folds the racers' outcomes into one Result, returned with the
// winner's post-processing, and replays buffered trace events as a single
// well-formed stream. Racer order is fixed, so the merge is deterministic.
func mergeRace(outs []racerOutcome, userTrace func(nlp.TraceEvent)) (nlp.Result, *processed) {
	win := 0
	for i := 1; i < len(outs); i++ {
		if outs[i].score < outs[win].score {
			win = i
		}
	}
	res := outs[win].res
	res.Iters, res.Evals = 0, 0

	iter, evals := 0, 0
	best := outs[0].res.Trajectory[0].Best // every racer starts from the same layout
	budgetStops := 0
	var ctxStop error
	for i := range outs {
		o := &outs[i]
		if userTrace != nil {
			for _, ev := range o.events {
				iter++
				if ev.Objective < best {
					best = ev.Objective
				}
				ev.Iter = iter
				ev.Best = best
				ev.Evals += evals
				userTrace(ev)
			}
		}
		res.Iters += o.res.Iters
		evals += o.res.Evals
		if o.res.Elapsed > res.Elapsed {
			res.Elapsed = o.res.Elapsed
		}
		switch {
		case o.res.Stop == nil:
		case isContextErr(o.res.Stop):
			ctxStop = o.res.Stop
		default:
			budgetStops++
		}
	}
	res.Evals = evals
	switch {
	case ctxStop != nil:
		res.Stop = ctxStop
	case budgetStops == len(outs):
		res.Stop = nlp.ErrBudgetExceeded
	default:
		res.Stop = nil
	}
	return res, outs[win].post
}
