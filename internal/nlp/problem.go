// Package nlp provides continuous optimizers for the database object layout
// problem (paper Definition 1): minimize the maximum predicted storage
// target utilization over the polytope of valid layouts.
//
// The paper formulates the problem in AMPL and solves it with the MINOS
// non-linear programming solver. MINOS is a *local* solver — the paper notes
// it is not guaranteed to find a global optimum and is sensitive to the
// initial layout. This package fills the same contract with three
// from-scratch solvers:
//
//   - TransferSearch: a mass-transfer local search that repeatedly shifts
//     fractions of objects off the most utilized target. It scales to the
//     paper's largest problems (N=160 objects, M=40 targets) because a move
//     only requires re-evaluating the two affected targets.
//   - ProjectedGradient: finite-difference projected gradient descent on a
//     softmax-smoothed objective, with per-row simplex projection. Useful as
//     a cross-check on small problems.
//   - Anneal: simulated annealing over random transfer moves.
//
// Every solver prices the objective with one model, the *layout.Evaluator of
// Eq. 1, and scores moves and finite-difference probes on its incremental
// kernel (layout.IncrementalEvaluator), which agrees with the evaluator's
// full recomputation to within 1e-9 (see DESIGN.md, "Evaluation-kernel
// tolerance contract").
//
// All three honour the integrity constraint exactly (rows always sum to 1)
// and the capacity constraint by construction (moves that would overfill a
// target are rejected; the gradient path repairs violations after each
// projection step).
package nlp

import (
	"time"

	"dblayout/internal/layout"
)

// NoRestarts is the Options.Restarts sentinel for a single-descent solve:
// no multi-start rounds run and Result.Restarts reports 0. (The zero value
// selects the default restart count, so "none" needs an explicit sentinel.)
const NoRestarts = -1

// Options controls the solvers. The zero value selects sensible defaults.
type Options struct {
	// MaxIters bounds improvement iterations (default 2000).
	MaxIters int
	// Restarts is the number of random multi-start rounds after the first
	// search converges; the best layout found is kept. Zero selects the
	// default (3); NoRestarts — or any negative value — requests a
	// single-descent solve with no multi-start rounds at all, which
	// Result.Restarts reports as 0. Every solver honours it:
	// TransferSearch re-descends from perturbations of its first descent's
	// result, ProjectedGradient re-descends from perturbations of the
	// initial layout, and Anneal runs one additional full annealing chain
	// per restart from a perturbed initial layout. Restarts are
	// independent of each other by construction, so they parallelize (see
	// Workers) without changing the chosen layout.
	Restarts int
	// Workers bounds how many restarts run concurrently. Zero selects
	// min(Restarts+1, GOMAXPROCS); 1 forces a fully serial solve. The
	// chosen layout is bit-identical for a given (Seed, Restarts) at any
	// worker count — parallelism changes wall-clock time, never the
	// result — except when Budget or a cancellation truncates the search,
	// in which case the set of restarts that completed in time is
	// scheduler-dependent.
	Workers int
	// Budget bounds the solver's wall-clock search time. When it elapses
	// the solver stops at the next periodic check and returns its best
	// layout so far with Result.Stop = ErrBudgetExceeded. Zero means
	// unbounded.
	Budget time.Duration
	// Seed feeds the perturbation randomness. Zero means "deterministic
	// default": every solver derives its generator from Seed alone (never
	// from the global math/rand state or the clock), so two runs with the
	// same Seed — including the zero value — produce identical results.
	Seed int64
	// Trace, when non-nil, observes every solver iteration. The hook is
	// never invoked concurrently and must be fast; heavyweight sinks
	// should buffer. Events for the first search (restart 0) are delivered
	// live from the solver goroutine; events from restart rounds are
	// recorded per worker and delivered when the solve completes, merged
	// in restart order with globally renumbered Iter values — so the
	// delivered stream is identical at every worker count, Iter is
	// consecutive from 1, and the Best field is non-increasing.
	Trace func(TraceEvent)
	// MovableObjects, when non-nil, restricts the search to moving only
	// the listed objects; all other rows are frozen. Used for
	// incremental placement (e.g. FlexVol-style growth), where existing
	// data must stay put.
	MovableObjects []int
	// PruneObjects and PruneTargets bound TransferSearch's candidate scan
	// for fleet-scale problems. A full scan prices every (object on the
	// most-utilized target) x (other target) x (step fraction) triple; a
	// pruned scan tries only the PruneObjects hottest objects on the
	// source — ranked by the kernel's cached per-target request rate, ties
	// toward the lower object id — against the PruneTargets least-utilized
	// destinations (ties toward the lower target id). Whenever the pruned
	// scan finds no improving move, one full scan runs before the search
	// may declare convergence, so a pruned descent terminates only in
	// states where the unpruned descent would also stop (the
	// pruning-soundness fallback; see DESIGN.md, "Candidate-move
	// pruning").
	//
	// Zero selects automatic behaviour: pruning engages with defaults (64
	// objects x 16 targets) only when N*M reaches pruneAutoPairs, so
	// paper-scale solves keep their exact dense scans. Any negative value
	// disables pruning outright. Setting either field positive forces
	// pruning at any problem size (the unset field takes its default).
	// Only TransferSearch prunes; the anneal and projected-gradient
	// solvers ignore these fields.
	PruneObjects int
	PruneTargets int
}

// tolerance is the minimum relative objective improvement that keeps a
// descent going.
const tolerance = 1e-4

// stepFractions are the fractions of an object's current assignment that a
// single transfer move may shift.
var stepFractions = [...]float64{1, 0.5, 0.25, 0.125}

// Automatic pruning engages at this many object-target pairs (the paper's
// largest study, N=160 x M=40 = 6400 pairs, stays three orders of magnitude
// below it), with these default scan bounds.
const (
	pruneAutoPairs      = 1 << 18
	defaultPruneObjects = 64
	defaultPruneTargets = 16
)

// pruneBounds resolves the configured pruning policy for an n x m problem.
// A (0, 0) result means "scan everything".
func (o Options) pruneBounds(n, m int) (po, pt int) {
	if o.PruneObjects < 0 || o.PruneTargets < 0 {
		return 0, 0
	}
	po, pt = o.PruneObjects, o.PruneTargets
	if po == 0 && pt == 0 && n*m < pruneAutoPairs {
		return 0, 0
	}
	if po == 0 {
		po = defaultPruneObjects
	}
	if pt == 0 {
		pt = defaultPruneTargets
	}
	return po, pt
}

// movableSet converts MovableObjects into a membership predicate.
func (o Options) movableSet(n int) func(int) bool {
	if o.MovableObjects == nil {
		return func(int) bool { return true }
	}
	set := make(map[int]bool, len(o.MovableObjects))
	for _, i := range o.MovableObjects {
		set[i] = true
	}
	return func(i int) bool { return set[i] }
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 2000
	}
	if o.Restarts < 0 {
		o.Restarts = 0
	} else if o.Restarts == 0 {
		o.Restarts = 3
	}
	return o
}

// Result reports a solver outcome. Its effort counters cover the whole
// multi-start solve: the first search and every restart round.
type Result struct {
	Layout    *layout.Layout
	Objective float64 // max target utilization of Layout
	Iters     int     // improvement iterations performed
	// Evals counts target utilizations the solver considered, a measure
	// of search effort rather than of kernel probes: the transfer search
	// and annealing count two per candidate move that fits the
	// capacities and constraints, whether or not the scan had to probe
	// it, two per applied move, and M per layout they start from; the
	// projected gradient counts one per finite-difference probe and M per
	// layout it scores in full.
	Evals int
	// Restarts counts the restart rounds actually performed beyond the
	// first search. It equals Options.Restarts unless a budget or
	// cancellation cut the multi-start short.
	Restarts int
	// Stop classifies why the search ended: nil for normal convergence or
	// iteration-budget exhaustion, ErrBudgetExceeded when Options.Budget
	// ran out, or the context's error when the caller cancelled. In every
	// case Layout holds the best valid layout found before stopping.
	Stop error
}

// maxOf returns the maximum value and its index.
func maxOf(vals []float64) (int, float64) {
	bi, bv := 0, vals[0]
	for i, v := range vals[1:] {
		if v > bv {
			bi, bv = i+1, v
		}
	}
	return bi, bv
}
