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
//
// The solver portfolio runs that whole loop once per solver and keeps the
// best final layout across all of them.
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
	// SolverPortfolio runs the whole advise (every initial layout, every
	// solve/regularize round) once with each of the transfer, anneal and,
	// when the instance has no administrative constraints,
	// projected-gradient solvers, one after another, and keeps the best
	// final layout: the multi-start loop of Fig. 4, run once per solver.
	// A strictly lower final objective wins, so ties go to the earlier
	// solver in that fixed order. Transfer runs first on the seeds a
	// SolverTransfer advise uses, so the portfolio never ends worse than
	// SolverTransfer, and on a tie it returns the same layout.
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
	// start of RecommendContext across every solver, multi-start and
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
// the paper's Fig. 13 reports on (initial, solver, regularized) from the
// round that produced Final, and the whole advise's running time and effort.
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

	// SolveTime and RegularizeTime split the advise's running time
	// between the solver and regularization, polish included (paper
	// Fig. 19), and SolverIters and SolverEvals count the solver's
	// effort. All four add up every solve and regularize of the advise:
	// every solver, initial layout and round, not only the one that
	// produced Final. SolverEvals adds up nlp.Result.Evals: it counts the
	// candidate moves the solver considered, not the kernel probes it
	// made, so a scan that skips hopeless candidates keeps it unchanged.
	SolveTime, RegularizeTime time.Duration
	SolverIters, SolverEvals  int

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
	inst    *layout.Instance
	ev      *layout.Evaluator
	opt     Options
	methods []method
}

// New validates the instance and the solver choice and constructs an
// advisor.
func New(inst *layout.Instance, opt Options) (*Advisor, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	methods, err := methodsFor(opt.Solver, inst)
	if err != nil {
		return nil, err
	}
	return &Advisor{inst: inst, ev: layout.NewEvaluator(inst), opt: opt, methods: methods}, nil
}

// method is one nlp solver, under the name its solve spans log.
type method struct {
	name  string
	solve func(ctx context.Context, ev *layout.Evaluator, inst *layout.Instance, init *layout.Layout, opt nlp.Options) nlp.Result
}

// methodsFor lists the solvers s runs, in the order that breaks final
// objective ties. Projected gradient joins the portfolio only when the
// instance has no administrative constraints (it cannot honour them).
func methodsFor(s Solver, inst *layout.Instance) ([]method, error) {
	transfer := method{"transfer", nlp.TransferSearch}
	anneal := method{"anneal", nlp.Anneal}
	switch s {
	case SolverTransfer:
		return []method{transfer}, nil
	case SolverAnneal:
		return []method{anneal}, nil
	case SolverPortfolio:
		if inst.Constraints != nil {
			return []method{transfer, anneal}, nil
		}
		return []method{transfer, anneal, {"projected-gradient", nlp.ProjectedGradient}}, nil
	}
	return nil, fmt.Errorf("core: unknown solver %v", s)
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

// RecommendContext runs the full pipeline of Fig. 4 under ctx: every
// solve/regularize round from every initial layout, once per solver the
// Solver option selects, keeping the best final layout.
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
// ErrModelFailure. Hard errors (nil, err) are reserved for invalid inputs and
// genuinely infeasible problems (ErrInfeasible).
func (a *Advisor) RecommendContext(ctx context.Context) (*Recommendation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := a.newRun(ctx)

	inits := a.opt.InitialLayouts
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
		if a.opt.Logger != nil {
			seedTime := time.Since(start)
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

	for k, init := range inits {
		if err := a.inst.ValidateLayout(init); err != nil {
			return nil, fmt.Errorf("core: initial layout %d invalid: %w", k, err)
		}
	}
	var best *Recommendation
	var ctxErr error
pipelines:
	for _, m := range a.methods {
		for k, init := range inits {
			rec, err := a.recommendFrom(r, m, init, k)
			best = better(best, rec)
			if err != nil {
				// Cancelled: skip every remaining pipeline.
				ctxErr = err
				break pipelines
			}
		}
	}
	best.SolveTime, best.RegularizeTime = r.solveTime, r.regularizeTime
	best.SolverIters, best.SolverEvals = r.iters, r.evals
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

// recommendFrom runs the solve->regularize rounds with solver m from starting
// layout number `startIdx`. A non-nil error is a cancellation, returned with
// the best-so-far recommendation.
func (a *Advisor) recommendFrom(r *run, m method, init *layout.Layout, startIdx int) (*Recommendation, error) {
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
		rec, err := a.oneRound(r, m, start, startIdx, round)
		best = better(best, rec)
		if err != nil {
			return best, err
		}
		if r.exhausted() {
			break
		}
		start = rec.Final
	}
	return best, nil
}

// oneRound performs one solve(+regularize) pass with solver m. Cost-model
// failures and budget truncation are absorbed into the recommendation
// (fallback layouts, degradation notes on r); the returned error is a
// context error, accompanied by the best-so-far recommendation.
func (a *Advisor) oneRound(r *run, m method, init *layout.Layout, startIdx, round int) (*Recommendation, error) {
	rec := &Recommendation{Initial: init.Clone()}
	rec.InitialObjective, _ = a.safeObjective(init)

	start := time.Now()
	res, err := a.safeSolve(r, m, init, startIdx, round)
	solveTime := time.Since(start)
	r.solveTime += solveTime
	r.iters += res.Iters
	r.evals += res.Evals
	if err != nil {
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
	a.log("solve", "solver", m.name, "duration", solveTime,
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

	start = time.Now()
	reg, polish, cut, err := a.safeRegularize(r, res.Layout)
	regularizeTime := time.Since(start)
	r.regularizeTime += regularizeTime
	if cut {
		r.note("regularize", "best-so-far", ErrBudgetExceeded)
	}
	if err == nil {
		rec.FinalObjective, err = a.safeObjective(reg)
	}
	if err != nil {
		// Regularization failed (or the model failed inside it or in
		// evaluating its result). The solver layout may be
		// non-regular, so fall back to the initial layout, which is
		// both valid and as regular as the caller's starting point.
		r.note("regularize", "initial", err)
		rec.Final = init.Clone()
		rec.FinalObjective = rec.InitialObjective
		return rec, nil
	}
	rec.Final = reg
	a.log("regularize", "duration", regularizeTime, "polish", polish,
		"objective", rec.FinalObjective,
		"delta", rec.SolverObjective-rec.FinalObjective)
	return rec, nil
}

// safeSolve runs solver m with the remaining solve budget, converting
// cost-model panics into ErrModelFailure-classified errors (including panics
// raised on solver worker goroutines, which the nlp worker pool re-raises on
// this goroutine).
func (a *Advisor) safeSolve(r *run, m method, init *layout.Layout, startIdx, round int) (res nlp.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = layout.AsModelFailure(p)
		}
	}()
	nopt := a.opt.NLP
	// Each (initial layout, round) solve gets its own seed stream; the
	// solvers further derive per-restart streams below it, so no two
	// perturbation sequences in one recommendation can collide. Every
	// solver sees the same stream: each keys its own RNGs under it.
	nopt.Seed = seed.Sub(a.opt.NLP.Seed, seed.StreamAdvisor, int64(startIdx), int64(round))
	if !r.deadline.IsZero() {
		left := time.Until(r.deadline)
		if left <= 0 {
			// Budget already gone: skip the solve entirely and hand
			// back the starting layout as the "best so far".
			obj, oerr := a.safeObjective(init)
			if oerr != nil {
				return nlp.Result{}, oerr
			}
			return nlp.Result{Layout: init.Clone(), Objective: obj, Stop: nlp.ErrBudgetExceeded}, nil
		}
		nopt.Budget = left
	}
	return m.solve(r.ctx, a.ev, a.inst, init, nopt), nil
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
