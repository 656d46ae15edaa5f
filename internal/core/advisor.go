// Package core implements the paper's layout advisor — its primary
// contribution. Given a layout problem instance (objects, targets with
// calibrated cost models, and Rome-style workload descriptions), the advisor
// follows the algorithm of paper Fig. 4:
//
//  1. build a valid initial layout with the load-based heuristic (Sec. 4.2),
//  2. run an NLP solver to locally minimize the maximum predicted target
//     utilization (Sec. 4.1),
//  3. optionally regularize the solver's layout so every object is spread
//     evenly over a subset of targets (Sec. 4.3), and
//  4. optionally repeat from additional initial layouts, keeping the best.
package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"dblayout/internal/layout"
	"dblayout/internal/nlp"
	"dblayout/internal/seed"
)

// Solver selects the optimization strategy standing in for the paper's
// MINOS solver.
type Solver int

// Available solvers.
const (
	// SolverTransfer is the default scalable mass-transfer local search.
	SolverTransfer Solver = iota
	// SolverAnneal is simulated annealing over transfer moves.
	SolverAnneal
	// SolverPortfolio races the transfer, anneal and (when the instance
	// has no administrative constraints) projected-gradient solvers
	// concurrently from the same initial layout and continues with the
	// racer whose layout ends lowest after the round's own
	// post-processing: regularized and, unless SkipPolish, polished (the
	// raw solver objective under SkipRegularization). A racer whose
	// post-processing fails never wins. Ties break toward the earlier
	// solver in that fixed order, so the outcome is deterministic.
	SolverPortfolio
)

// String names the solver.
func (s Solver) String() string {
	switch s {
	case SolverTransfer:
		return "transfer"
	case SolverAnneal:
		return "anneal"
	case SolverPortfolio:
		return "portfolio"
	}
	return fmt.Sprintf("solver(%d)", int(s))
}

// Options configures the advisor. The zero value requests the defaults used
// throughout the paper's evaluation: transfer search from the heuristic
// initial layout, with regularization.
type Options struct {
	// Solver selects the optimization strategy.
	Solver Solver
	// NLP tunes the chosen solver.
	NLP nlp.Options
	// SkipRegularization leaves the solver's (possibly non-regular)
	// layout as the final recommendation, for layout mechanisms that can
	// implement arbitrary fractions.
	SkipRegularization bool
	// InitialLayouts supplies explicit starting points (e.g. expert
	// guesses, or SEE for the ablation study). When empty, the Sec. 4.2
	// heuristic initial layout is used. With several entries the whole
	// optimize(+regularize) pass runs from each and the best final layout
	// wins — the "repeat?" loop of Fig. 4.
	InitialLayouts []*layout.Layout
	// Rounds is the number of solve->regularize rounds per initial
	// layout: after the first round, the regularized layout is fed back
	// to the solver, which often recovers quality lost to
	// regularization. Zero selects 2. This is the inner "repeat?" arrow
	// of Fig. 4.
	Rounds int
	// SkipPolish disables the regular-to-regular polish pass that runs
	// after regularization (an extension beyond the paper; see
	// PolishRegular). Exposed for ablation.
	SkipPolish bool
	// SolveBudget sets a deadline for the whole advise, counted from the
	// start of RecommendContext across every multi-start and
	// solve/regularize round. When it passes mid-solve, the solver stops
	// at its next periodic check and remaining solves are skipped; a
	// polish pass stops between objects. The one-shot Sec. 4.3
	// regularizer still runs, so the recommendation stays regular. The
	// advisor completes with the best layout found so far — marked
	// Degraded with cause ErrBudgetExceeded. Zero means unbounded.
	SolveBudget time.Duration
	// Logger, when non-nil, receives a span per advisor phase
	// (seed -> solve -> regularize -> validate) with durations and
	// objective deltas. Nil disables logging entirely (zero overhead:
	// no handler is ever consulted).
	Logger *slog.Logger
}

// Recommendation is the advisor's output, retaining the intermediate layouts
// the paper's Fig. 13 reports on (initial, solver, regularized).
type Recommendation struct {
	// Initial is the starting layout handed to the solver.
	Initial *layout.Layout
	// Solver is the optimized, possibly non-regular layout.
	Solver *layout.Layout
	// Final is the recommended layout: the regularized solver layout, or
	// the solver layout itself when regularization is skipped.
	Final *layout.Layout

	// InitialObjective, SolverObjective and FinalObjective are the
	// predicted max target utilizations of the respective layouts.
	InitialObjective float64
	SolverObjective  float64
	FinalObjective   float64

	// SolveTime and RegularizeTime break down where the advisor spent
	// its time (paper Fig. 19). RegularizeTime includes PolishTime. A
	// portfolio's racers post-process inside the solve, so there
	// RegularizeTime is the winner's share of SolveTime.
	SolveTime      time.Duration
	RegularizeTime time.Duration
	// InitialTime is the time spent constructing the heuristic initial
	// layout (zero when explicit initial layouts were supplied).
	InitialTime time.Duration
	// PolishTime is the share of RegularizeTime spent in the
	// regular-to-regular polish pass.
	PolishTime time.Duration
	// SolverIters and SolverEvals report solver effort. SolverEvals is
	// nlp.Result.Evals: it counts the candidate moves the solver
	// considered, not the kernel probes it made, so a scan that skips
	// hopeless candidates keeps it unchanged.
	SolverIters, SolverEvals int
	// SolverRestarts counts the multi-start restart rounds the winning
	// solve performed; SolverWorkers is the worker-pool width it used.
	SolverRestarts, SolverWorkers int
	// Trajectory is the winning solver run's bounded objective-sample
	// series, for convergence plots (see nlp.Result.Trajectory).
	Trajectory []nlp.TrajPoint

	// Degraded reports that the advisor could not run the full pipeline at
	// full fidelity — a solve was truncated by the budget or a
	// cancellation, or a phase failed and a fallback layout stands in. The
	// recommendation is still a valid layout for the instance.
	Degraded bool
	// Degradation holds the structured reason when Degraded is set: the
	// phase that fell short, the fallback used, and the classified cause.
	Degradation *Degradation
}

// Advisor recommends optimized layouts for one problem instance.
type Advisor struct {
	inst *layout.Instance
	ev   *layout.Evaluator
	opt  Options
}

// New validates the instance and constructs an advisor.
func New(inst *layout.Instance, opt Options) (*Advisor, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return &Advisor{inst: inst, ev: layout.NewEvaluator(inst), opt: opt}, nil
}

// Evaluator exposes the advisor's utilization model, for reporting.
func (a *Advisor) Evaluator() *layout.Evaluator { return a.ev }

// Instance returns the problem instance.
func (a *Advisor) Instance() *layout.Instance { return a.inst }

// log emits a phase span when a logger is configured. The guard keeps the
// disabled path free of any slog machinery.
func (a *Advisor) log(phase string, args ...interface{}) {
	if a.opt.Logger == nil {
		return
	}
	a.opt.Logger.Info("advisor phase", append([]interface{}{"phase", phase}, args...)...)
}

// Recommend runs the full pipeline of Fig. 4 and returns the recommendation.
// It is RecommendContext with a background context.
func (a *Advisor) Recommend() (*Recommendation, error) {
	return a.RecommendContext(context.Background())
}

// RecommendContext runs the full pipeline of Fig. 4 under ctx.
//
// Cancellation is honoured promptly: the solvers poll the context every few
// milliseconds. An already-cancelled context returns (nil, ctx.Err()) without
// solving; a cancellation mid-run returns the best valid layout found so far
// (marked Degraded) *alongside* ctx.Err(), so callers that can use a partial
// answer have one and callers that cannot see the error.
//
// All other failures degrade rather than fail whenever a valid layout can
// still be produced: when Options.SolveBudget runs out, remaining solver work
// is skipped and the best layout so far is returned with a nil error and
// Degraded set (cause ErrBudgetExceeded); when a cost model panics or
// returns a non-finite cost, the advisor falls back to the heuristic initial
// layout — and, if even constructing that fails, to SEE — with cause
// ErrModelFailure. Hard errors (nil, err) are reserved for invalid inputs,
// solver misconfiguration, and genuinely infeasible problems (ErrInfeasible).
func (a *Advisor) RecommendContext(ctx context.Context) (*Recommendation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := a.newRun(ctx)

	inits := a.opt.InitialLayouts
	var seedTime time.Duration
	if len(inits) == 0 {
		start := time.Now()
		init, err := layout.InitialLayout(a.inst)
		if err != nil {
			// The greedy heuristic can fail on instances that are
			// feasible but tight; SEE (spread everything everywhere)
			// is the ladder's last rung when it happens to be valid.
			see := layout.SEE(a.inst.N(), a.inst.M())
			if a.inst.ValidateLayout(see) != nil {
				return nil, fmt.Errorf("core: initial layout: %w", err)
			}
			r.note("seed", "see", err)
			init = see
		}
		seedTime = time.Since(start)
		if a.opt.Logger != nil {
			obj, _ := a.safeObjective(init)
			a.log("seed", "duration", seedTime, "objective", obj)
		}
		inits = []*layout.Layout{init}
	} else if a.opt.Logger != nil {
		// Explicit starting points (multi-start): report each one.
		for k, init := range inits {
			obj, _ := a.safeObjective(init)
			a.log("seed", "start", k, "provided", true, "objective", obj)
		}
	}

	var best *Recommendation
	var ctxErr error
	for k, init := range inits {
		if err := a.inst.ValidateLayout(init); err != nil {
			return nil, fmt.Errorf("core: initial layout %d invalid: %w", k, err)
		}
		rec, err := a.recommendFrom(r, init, k)
		if rec != nil {
			rec.InitialTime = seedTime
			best = better(best, rec)
		}
		if err != nil {
			if rec == nil || isContextErr(err) {
				// Cancellation (or a hard error before any layout
				// was produced): stop the multi-start immediately.
				ctxErr = err
				break
			}
			return nil, err
		}
	}
	if best == nil {
		if ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("core: no recommendation produced")
	}
	if r.degr != nil {
		best.Degraded = true
		best.Degradation = r.degr
	}

	// Final validation: the recommendation must be a valid layout for the
	// instance's capacities and constraints, whatever path produced it.
	start := time.Now()
	if err := a.inst.ValidateLayout(best.Final); err != nil {
		return nil, fmt.Errorf("core: recommended layout invalid: %w", err)
	}
	a.log("validate", "duration", time.Since(start),
		"objective", best.FinalObjective,
		"delta", best.InitialObjective-best.FinalObjective)
	return best, ctxErr
}

// isContextErr reports whether err stems from context cancellation.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// recommendFrom runs the solve->regularize rounds from starting layout
// number `startIdx`. A non-nil error is a cancellation (returned with the
// best-so-far recommendation) or a hard configuration error (returned with a
// nil one).
func (a *Advisor) recommendFrom(r *run, init *layout.Layout, startIdx int) (*Recommendation, error) {
	rounds := a.opt.Rounds
	if rounds <= 0 {
		rounds = 2
	}
	if a.opt.SkipRegularization {
		rounds = 1 // nothing to feed back without the regular layout
	}
	var best *Recommendation
	start := init
	for round := 0; round < rounds; round++ {
		rec, err := a.oneRound(r, start, startIdx, round)
		best = better(best, rec)
		if err != nil {
			return best, err
		}
		if rec == nil || rec.Final == nil || r.exhausted() {
			break
		}
		start = rec.Final
	}
	return best, nil
}

// oneRound performs one solve(+regularize) pass. Cost-model failures and
// budget truncation are absorbed into the recommendation (fallback layouts,
// degradation notes on r); the returned error is either a context error —
// accompanied by a best-so-far recommendation — or a hard configuration
// error with a nil recommendation.
func (a *Advisor) oneRound(r *run, init *layout.Layout, startIdx, round int) (*Recommendation, error) {
	rec := &Recommendation{Initial: init.Clone()}
	rec.InitialObjective, _ = a.safeObjective(init)

	start := time.Now()
	res, post, err := a.safeSolve(r, init, startIdx, round)
	rec.SolveTime = time.Since(start)
	if err != nil {
		if !errors.Is(err, ErrModelFailure) {
			return nil, err // solver misconfiguration: a hard error
		}
		// The cost model failed inside the solver. The initial layout
		// is valid (validated on entry), so it stands in for the
		// solve's output — the ladder's "heuristic initial layout"
		// rung.
		r.note("solve", "initial", err)
		rec.Final = init.Clone()
		rec.FinalObjective = rec.InitialObjective
		return rec, nil
	}
	rec.Solver = res.Layout
	rec.SolverObjective = res.Objective
	rec.SolverIters = res.Iters
	rec.SolverEvals = res.Evals
	rec.SolverRestarts = res.Restarts
	rec.SolverWorkers = res.Workers
	rec.Trajectory = res.Trajectory
	a.log("solve", "solver", a.opt.Solver.String(), "duration", rec.SolveTime,
		"objective", rec.SolverObjective,
		"delta", rec.InitialObjective-rec.SolverObjective,
		"iters", res.Iters, "evals", res.Evals)

	if res.Stop != nil {
		if isContextErr(res.Stop) {
			// Cancelled mid-solve: the solver's best-so-far layout
			// is valid by construction; skip regularization and
			// unwind with the context error.
			r.note("solve", "best-so-far", res.Stop)
			rec.Final = res.Layout
			rec.FinalObjective = res.Objective
			return rec, res.Stop
		}
		// Budget exhausted: keep the best-so-far layout and finish the
		// round (regularization is cheap and restores implementability).
		r.note("solve", "best-so-far", res.Stop)
	}

	if a.opt.SkipRegularization {
		rec.Final = rec.Solver
		rec.FinalObjective = rec.SolverObjective
		return rec, nil
	}

	if post == nil {
		p := a.postProcess(r, res.Layout)
		post = &p
	}
	rec.RegularizeTime = post.elapsed
	rec.PolishTime = post.polish
	if post.cut {
		r.note("regularize", "best-so-far", ErrBudgetExceeded)
	}
	if post.err != nil {
		// Regularization failed (or the model failed inside it or in
		// evaluating its result). The solver layout may be
		// non-regular, so fall back to the initial layout, which is
		// both valid and as regular as the caller's starting point.
		r.note("regularize", "initial", post.err)
		rec.Final = init.Clone()
		rec.FinalObjective = rec.InitialObjective
		return rec, nil
	}
	rec.Final = post.reg
	rec.FinalObjective = post.obj
	a.log("regularize", "duration", rec.RegularizeTime, "polish", rec.PolishTime,
		"objective", rec.FinalObjective,
		"delta", rec.SolverObjective-rec.FinalObjective)
	return rec, nil
}

// safeSolve dispatches to the configured solver with the remaining solve
// budget, converting cost-model panics into ErrModelFailure-classified
// errors (including panics raised on solver worker goroutines, which the
// nlp worker pool re-raises on this goroutine). An unknown solver comes
// back as an ordinary error. A solver that already post-processed its
// layout (the portfolio, which ranks its racers that way) returns that
// post-processing; the others return nil.
func (a *Advisor) safeSolve(r *run, init *layout.Layout, startIdx, round int) (res nlp.Result, post *processed, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = layout.AsModelFailure(p)
		}
	}()
	nopt := a.opt.NLP
	// Each (initial layout, round) solve gets its own seed stream; the
	// solvers further derive per-restart streams below it, so no two
	// perturbation sequences in one recommendation can collide.
	nopt.Seed = seed.Sub(a.opt.NLP.Seed, seed.StreamAdvisor, int64(startIdx), int64(round))
	if !r.deadline.IsZero() {
		left := time.Until(r.deadline)
		if left <= 0 {
			// Budget already gone: skip the solve entirely and hand
			// back the starting layout as the "best so far".
			obj, oerr := a.safeObjective(init)
			if oerr != nil {
				return nlp.Result{}, nil, oerr
			}
			return nlp.Result{Layout: init.Clone(), Objective: obj, Stop: nlp.ErrBudgetExceeded}, nil, nil
		}
		nopt.Budget = left
	}
	switch a.opt.Solver {
	case SolverTransfer:
		return nlp.TransferSearch(r.ctx, a.ev, a.inst, init, nopt), nil, nil
	case SolverAnneal:
		return nlp.Anneal(r.ctx, a.ev, a.inst, init, nopt), nil, nil
	case SolverPortfolio:
		res, post = a.portfolioSolve(r, init, nopt)
		return res, post, nil
	}
	return res, nil, fmt.Errorf("core: unknown solver %v", a.opt.Solver)
}

// processed is one solver layout's post-processing: the regularized and,
// unless SkipPolish, polished layout with its objective, the time both
// passes took (the recommendation's RegularizeTime) and the polish's share
// of it, whether the run's deadline cut the polish short, and the first
// failure.
type processed struct {
	reg     *layout.Layout
	obj     float64
	elapsed time.Duration
	polish  time.Duration
	cut     bool
	err     error
}

// postProcess regularizes and polishes a solver layout (see safeRegularize)
// and evaluates the result.
func (a *Advisor) postProcess(r *run, solved *layout.Layout) processed {
	start := time.Now()
	var p processed
	p.reg, p.polish, p.cut, p.err = a.safeRegularize(r, solved)
	p.elapsed = time.Since(start)
	if p.err == nil {
		p.obj, p.err = a.safeObjective(p.reg)
	}
	return p
}

// safeRegularize regularizes the solver layout and, unless SkipPolish,
// polishes it until the run's deadline, reporting the polish time and
// whether the deadline cut the polish short. Cost-model panics come back as
// ErrModelFailure-classified errors.
func (a *Advisor) safeRegularize(r *run, solved *layout.Layout) (reg *layout.Layout, polish time.Duration, cut bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			reg, err = nil, layout.AsModelFailure(p)
		}
	}()
	reg, err = Regularize(a.ev, a.inst, solved)
	if err != nil {
		return nil, 0, false, fmt.Errorf("core: regularization: %w", err)
	}
	if !a.opt.SkipPolish {
		start := time.Now()
		reg, cut = PolishRegular(a.ev, a.inst, reg, r.deadline)
		polish = time.Since(start)
	}
	return reg, polish, cut, nil
}
