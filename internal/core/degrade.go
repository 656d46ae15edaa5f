package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"dblayout/internal/layout"
	"dblayout/internal/nlp"
)

// Sentinel errors surfaced by the advisor, re-exported so callers can match
// with errors.Is without importing the internal layers that originate them.
var (
	// ErrInfeasible reports a problem with no valid layout: objects exceed
	// the surviving capacity, or constraints leave an object with no
	// permitted target.
	ErrInfeasible = layout.ErrInfeasible
	// ErrModelFailure reports that a cost model panicked or returned a
	// non-finite or negative cost during evaluation.
	ErrModelFailure = layout.ErrModelFailure
	// ErrBudgetExceeded reports that Options.SolveBudget ran out before the
	// full pipeline completed.
	ErrBudgetExceeded = nlp.ErrBudgetExceeded
)

// Degradation records why a recommendation came from a fallback path rather
// than the full-fidelity pipeline. The advisor degrades instead of failing
// whenever a valid layout can still be produced: a truncated solve keeps its
// best-so-far layout, a failing cost model falls back to the heuristic
// initial layout, a failing heuristic falls back to SEE (spread everything
// everywhere).
type Degradation struct {
	// Phase is the advisor phase that could not complete normally:
	// "seed", "solve", or "regularize".
	Phase string
	// Fallback names what stood in for the phase's normal output:
	// "best-so-far", "initial", or "see".
	Fallback string
	// Cause classifies the failure; errors.Is-comparable against
	// ErrBudgetExceeded, ErrModelFailure, context.Canceled, or
	// context.DeadlineExceeded.
	Cause error
}

// Error makes a Degradation usable as an error value.
func (d *Degradation) Error() string {
	return fmt.Sprintf("advisor degraded at %s (fallback %s): %v", d.Phase, d.Fallback, d.Cause)
}

// Unwrap exposes the cause to errors.Is/errors.As.
func (d *Degradation) Unwrap() error { return d.Cause }

// run carries the per-call state of one RecommendContext invocation. It lives
// on the stack of the call rather than on the Advisor so that concurrent
// recommendations on one Advisor stay race-free.
type run struct {
	a        *Advisor
	ctx      context.Context
	deadline time.Time // zero = no solve budget
	degr     *Degradation

	// The advise's effort so far, added up over every solve and
	// regularize of every solver, start and round.
	solveTime, regularizeTime time.Duration
	iters, evals              int
}

func (a *Advisor) newRun(ctx context.Context) *run {
	r := &run{a: a, ctx: ctx}
	if a.opt.SolveBudget > 0 {
		r.deadline = time.Now().Add(a.opt.SolveBudget)
	}
	return r
}

// exhausted reports whether the solve budget has run out.
func (r *run) exhausted() bool {
	return !r.deadline.IsZero() && !time.Now().Before(r.deadline)
}

// note records a degradation. The first cause is kept as the recommendation's
// structured reason (it is the root of any cascade); every one is logged.
func (r *run) note(phase, fallback string, cause error) {
	r.a.log("degrade", "phase", phase, "fallback", fallback, "cause", cause)
	if r.degr == nil {
		r.degr = &Degradation{Phase: phase, Fallback: fallback, Cause: cause}
	}
}

// safeObjective evaluates the max utilization of l, converting cost-model
// panics into an ErrModelFailure-classified error and a NaN objective.
func (a *Advisor) safeObjective(l *layout.Layout) (obj float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			obj, err = math.NaN(), layout.AsModelFailure(p)
		}
	}()
	return a.ev.MaxUtilization(l), nil
}

// better picks the recommendation with the lower final objective, treating
// NaN (a model-failure fallback) as worse than any finite value.
func better(best, cand *Recommendation) *Recommendation {
	switch {
	case cand == nil:
		return best
	case best == nil, math.IsNaN(best.FinalObjective) && !math.IsNaN(cand.FinalObjective):
		return cand
	case cand.FinalObjective < best.FinalObjective:
		return cand
	}
	return best
}
