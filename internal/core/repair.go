package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"dblayout/internal/layout"
	"dblayout/internal/nlp"
	"dblayout/internal/seed"
)

// Repair is the output of RecommendRepair: a failure-aware re-layout that
// evacuates the failed targets while pinning every unaffected object in
// place.
type Repair struct {
	// Layout is the repaired layout; it places nothing on failed targets.
	Layout *layout.Layout
	// Instance is the repaired problem: the original instance with Deny
	// constraints excluding every failed target, so Layout validates
	// against it and follow-up advising honours the failure.
	Instance *layout.Instance
	// Failed is the normalized (sorted, deduplicated) list of failed
	// target indices.
	Failed []int
	// Affected lists the objects that had fractions on failed targets —
	// the only objects the repair was allowed to move.
	Affected []int
	// Objective is the predicted max utilization of Layout over the
	// surviving targets (NaN when the cost model failed; see Degraded).
	Objective float64
	// Plan is the migration plan from the pre-failure layout to Layout,
	// and PlanBytes the data volume it moves. Failed targets appear as
	// move sources: executing such moves means reconstructing that data
	// from redundancy or backup rather than reading it. The moves are in
	// object order; package migrate's BuildScript schedules them.
	Plan      []layout.Move
	PlanBytes int64
	// SolveTime is the wall-clock time spent re-solving.
	SolveTime time.Duration
	// Degraded and Degradation mirror Recommendation: when set, Layout is
	// a valid evacuation but came from a fallback path (budget truncation,
	// cost-model failure, or failed regularization — the last may leave
	// Layout non-regular).
	Degraded    bool
	Degradation *Degradation
}

// RecommendRepair re-solves the layout after storage targets fail: it
// excludes the failed targets via Deny constraints, pins every fraction that
// does not reside on a failed target, redistributes the displaced fractions
// (proportionally over each object's surviving targets, spilling greedily by
// free capacity), locally re-optimizes only the affected objects, and emits
// the migration plan from current to the repaired layout.
//
// The seeding is deliberately model-free, so a repair succeeds — degraded —
// even when every cost model is broken: the solver rung of the ladder is
// skipped and the proportional redistribution stands. ErrInfeasible is
// returned when the surviving targets cannot hold the data at all.
//
// Cancellation and budgets follow RecommendContext's contract: an
// already-cancelled ctx returns (nil, ctx.Err()); cancellation mid-solve
// returns the best valid repair so far alongside ctx.Err(); an exhausted
// opt.SolveBudget degrades instead of failing. The re-solve always uses the
// transfer search (the only solver that honours pinned objects with
// constraints), so opt.Solver is ignored.
func RecommendRepair(ctx context.Context, inst *layout.Instance, current *layout.Layout, failed []int, opt Options) (*Repair, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if err := inst.ValidateLayout(current); err != nil {
		return nil, fmt.Errorf("core: pre-failure layout invalid: %w", err)
	}

	failed = normalizeFailed(failed)
	if len(failed) == 0 {
		return nil, fmt.Errorf("core: no failed targets given")
	}
	isFailed := make(map[int]bool, len(failed))
	for _, j := range failed {
		if j < 0 || j >= inst.M() {
			return nil, fmt.Errorf("core: failed target index %d outside [0,%d)", j, inst.M())
		}
		isFailed[j] = true
	}
	if len(failed) >= inst.M() {
		return nil, fmt.Errorf("core: all %d targets failed: %w", inst.M(), ErrInfeasible)
	}

	// Surviving capacity must hold everything; Instance.Validate cannot
	// catch this because the failed targets still exist in the instance.
	var need, have int64
	for _, o := range inst.Objects {
		need += o.Size
	}
	for j, t := range inst.Targets {
		if !isFailed[j] {
			have += t.Capacity
		}
	}
	if need > have {
		return nil, fmt.Errorf("core: objects need %d bytes but surviving targets provide %d: %w", need, have, ErrInfeasible)
	}

	rinst, err := DenyTargets(inst, failed)
	if err != nil {
		return nil, err
	}

	rep := &Repair{Instance: rinst, Failed: failed}
	for i := 0; i < current.N; i++ {
		for _, j := range failed {
			if current.At(i, j) > layout.Epsilon {
				rep.Affected = append(rep.Affected, i)
				break
			}
		}
	}
	if len(rep.Affected) == 0 {
		// Nothing resided on the failed targets: the current layout is
		// already a valid repair and no data moves.
		rep.Layout = current.Clone()
		ev := layout.NewEvaluator(rinst)
		rep.Objective, _ = safeEvalMax(ev, rep.Layout)
		return rep, nil
	}

	evac, err := evacuate(rinst, current, rep.Affected, isFailed)
	if err != nil {
		return nil, err
	}
	if err := rinst.ValidateLayout(evac); err != nil {
		return nil, fmt.Errorf("core: repair seeding produced an invalid layout: %w: %w", ErrInfeasible, err)
	}

	note := func(phase, fallback string, cause error) {
		if opt.Logger != nil {
			opt.Logger.Info("advisor phase", "phase", "degrade",
				"repair", true, "stage", phase, "fallback", fallback, "cause", cause)
		}
		if rep.Degradation == nil {
			rep.Degraded = true
			rep.Degradation = &Degradation{Phase: phase, Fallback: fallback, Cause: cause}
		}
	}

	// Re-solve over the affected objects only, under the remaining budget.
	ev := layout.NewEvaluator(rinst)
	nopt := opt.NLP
	nopt.MovableObjects = rep.Affected
	nopt.Budget = opt.SolveBudget
	// Repair solves draw from their own seed stream so a repair after a
	// recommendation (same base seed) never replays the advisor's
	// perturbation sequence.
	nopt.Seed = seed.Sub(opt.NLP.Seed, seed.StreamRepair)
	start := time.Now()
	final, stop, serr := repairSolve(ctx, ev, rinst, evac, nopt)
	rep.SolveTime = time.Since(start)
	var ctxErr error
	switch {
	case serr != nil:
		// Cost model failed inside the solver; the model-free seed
		// stands (the "heuristic layout" rung of the ladder).
		note("solve", "seed", serr)
		final = evac
	case isContextErr(stop):
		note("solve", "best-so-far", stop)
		ctxErr = stop
	case stop != nil:
		note("solve", "best-so-far", stop)
	}

	// Restore regularity for the affected rows when the pre-failure layout
	// was regular, so the repair stays implementable by the same striping
	// mechanism. Skipped once the model has already failed or the caller
	// cancelled — Regularize consults the evaluator.
	if serr == nil && ctxErr == nil && current.IsRegular() && !final.IsRegular() {
		reg, rerr := repairRegularize(ev, rinst, final)
		if rerr != nil {
			note("regularize", "solver-layout", rerr)
		} else {
			if unaffectedMoved(current, reg, rep.Affected) {
				return nil, fmt.Errorf("core: internal error: repair moved an unaffected object")
			}
			final = reg
		}
	}

	if err := rinst.ValidateLayout(final); err != nil {
		return nil, fmt.Errorf("core: repaired layout invalid: %w", err)
	}
	if unaffectedMoved(current, final, rep.Affected) {
		return nil, fmt.Errorf("core: internal error: repair moved an unaffected object")
	}
	rep.Layout = final
	rep.Objective, _ = safeEvalMax(ev, final)
	rep.Plan, err = layout.MigrationPlan(current, final, rinst.Sizes())
	if err != nil {
		return nil, err
	}
	rep.PlanBytes = layout.PlanBytes(rep.Plan)
	return rep, ctxErr
}

// normalizeFailed sorts and deduplicates the failed target list.
func normalizeFailed(failed []int) []int {
	out := append([]int(nil), failed...)
	sort.Ints(out)
	dst := 0
	for i, j := range out {
		if i == 0 || j != out[dst-1] {
			out[dst] = j
			dst++
		}
	}
	return out[:dst]
}

// DenyTargets clones the instance with Deny constraints barring every object
// from the failed targets, so no advise places data on them again. The
// original instance and its constraint maps are not mutated.
func DenyTargets(inst *layout.Instance, failed []int) (*layout.Instance, error) {
	rinst := *inst
	c := &layout.Constraints{}
	if old := inst.Constraints; old != nil {
		c.Allow = make(map[int][]int, len(old.Allow))
		for i, ts := range old.Allow {
			c.Allow[i] = append([]int(nil), ts...)
		}
		c.Deny = make(map[int][]int, len(old.Deny))
		for i, ts := range old.Deny {
			c.Deny[i] = append([]int(nil), ts...)
		}
		c.Separate = append([][2]int(nil), old.Separate...)
	}
	if c.Deny == nil {
		c.Deny = make(map[int][]int, inst.N())
	}
	for i := 0; i < inst.N(); i++ {
		c.Deny[i] = append(c.Deny[i], failed...)
	}
	rinst.Constraints = c
	if err := c.Validate(inst.N(), inst.M()); err != nil {
		// An Allow set contained within the failed targets leaves the
		// object with nowhere to go.
		return nil, fmt.Errorf("core: denying failed targets: %w", err)
	}
	return &rinst, nil
}

// evacuate builds the model-free repair seed: failed fractions of each
// affected object are redistributed proportionally over the object's
// surviving targets, spilling to the permitted target with the most free
// capacity when a proportional share does not fit or the object lived
// entirely on failed targets.
func evacuate(rinst *layout.Instance, current *layout.Layout, affected []int, isFailed map[int]bool) (*layout.Layout, error) {
	l := current.Clone()
	sizes := rinst.Sizes()
	caps := rinst.Capacities()
	bytes := make([]float64, l.M)
	for j := 0; j < l.M; j++ {
		bytes[j] = l.TargetBytes(j, sizes)
	}

	fits := func(i, j int, frac float64) bool {
		if isFailed[j] || !rinst.Constraints.Permits(i, j) {
			return false
		}
		if bytes[j]+frac*float64(sizes[i]) > float64(caps[j])*(1+1e-12) {
			return false
		}
		return !sharesSeparatedRow(rinst.Constraints, l, i, j)
	}
	place := func(i, j int, frac float64) {
		l.Set(i, j, l.At(i, j)+frac)
		bytes[j] += frac * float64(sizes[i])
	}
	// spill places frac of object i wherever the most free capacity is.
	spill := func(i int, frac float64) error {
		for frac > layout.Epsilon {
			best, bestFree := -1, 0.0
			for j := 0; j < l.M; j++ {
				if !fits(i, j, 0) {
					continue
				}
				if free := float64(caps[j]) - bytes[j]; best < 0 || free > bestFree {
					best, bestFree = j, free
				}
			}
			if best < 0 || bestFree <= 0 {
				return fmt.Errorf("core: no surviving target can absorb object %q: %w",
					rinst.Objects[i].Name, ErrInfeasible)
			}
			take := frac
			if room := bestFree / float64(sizes[i]); take > room {
				take = room
			}
			place(i, best, take)
			frac -= take
		}
		return nil
	}

	for _, i := range affected {
		deficit := 0.0
		healthy := 0.0
		for j := 0; j < l.M; j++ {
			f := l.At(i, j)
			if f <= layout.Epsilon {
				continue
			}
			if isFailed[j] {
				deficit += f
				bytes[j] -= f * float64(sizes[i])
				l.Set(i, j, 0)
			} else {
				healthy += f
			}
		}
		if healthy > layout.Epsilon {
			// Proportional top-up of the surviving fractions.
			rest := deficit
			for j := 0; j < l.M && rest > layout.Epsilon; j++ {
				f := l.At(i, j)
				if f <= layout.Epsilon || isFailed[j] {
					continue
				}
				share := deficit * f / healthy
				if share > rest {
					share = rest
				}
				if free := (float64(caps[j]) - bytes[j]) / float64(sizes[i]); share > free {
					share = free
				}
				if share > layout.Epsilon {
					place(i, j, share)
					rest -= share
				}
			}
			deficit = rest
		}
		if deficit > layout.Epsilon {
			if err := spill(i, deficit); err != nil {
				return nil, err
			}
		}
	}
	return l, nil
}

// repairSolve runs the transfer search with panics from the cost model
// converted into an ErrModelFailure-classified error.
func repairSolve(ctx context.Context, ev *layout.Evaluator, rinst *layout.Instance, start *layout.Layout, opt nlp.Options) (l *layout.Layout, stop error, err error) {
	defer func() {
		if p := recover(); p != nil {
			l, stop, err = nil, nil, layout.AsModelFailure(p)
		}
	}()
	res := nlp.TransferSearch(ctx, ev, rinst, start, opt)
	return res.Layout, res.Stop, nil
}

// repairRegularize regularizes with the same panic conversion.
func repairRegularize(ev *layout.Evaluator, rinst *layout.Instance, l *layout.Layout) (reg *layout.Layout, err error) {
	defer func() {
		if p := recover(); p != nil {
			reg, err = nil, layout.AsModelFailure(p)
		}
	}()
	return Regularize(ev, rinst, l)
}

// safeEvalMax evaluates max utilization with panic conversion.
func safeEvalMax(ev *layout.Evaluator, l *layout.Layout) (obj float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			obj, err = math.NaN(), layout.AsModelFailure(p)
		}
	}()
	return ev.MaxUtilization(l), nil
}

// unaffectedMoved reports whether any row outside the affected set differs
// between the two layouts.
func unaffectedMoved(before, after *layout.Layout, affected []int) bool {
	moved := make(map[int]bool, len(affected))
	for _, i := range affected {
		moved[i] = true
	}
	for i := 0; i < before.N; i++ {
		if moved[i] {
			continue
		}
		for j := 0; j < before.M; j++ {
			if before.At(i, j) != after.At(i, j) {
				return true
			}
		}
	}
	return false
}
