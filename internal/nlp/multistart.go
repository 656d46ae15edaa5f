package nlp

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dblayout/internal/layout"
)

// This file implements the parallel multi-start machinery shared by the
// three solvers. The contract, documented on Options.Workers and in
// DESIGN.md, is that the chosen layout is bit-identical for a given
// (Seed, Restarts) at any worker count:
//
//   - restart r draws every random decision from its own generator, seeded
//     seed.Sub(Seed, seed.Stream<solver>, r), so no stream depends on
//     scheduling;
//   - every restart starts from a layout fully determined by the serial
//     first descent (never from another restart's output);
//   - outcomes are merged in restart-index order, and ties on the objective
//     are broken toward the lower restart index.
//
// Parallelism therefore changes wall-clock time only. The one exception is
// a Budget or cancellation cutting the search short: which restarts complete
// before the deadline depends on the scheduler, so truncated solves keep
// only the weaker guarantee that the result is the best of the restarts
// that ran.

// multiStart runs a solver as the multi-start iteration of the paper's
// Fig. 4. The first search runs on the calling goroutine; then restart runs
// rounds r = 1..opt.Restarts on the worker pool, each handed the first
// search's layout as from. Each search notes its iterations on tk, polls lim
// and returns the best layout it found, that layout's objective and the
// evaluations it spent (as Result.Evals counts them). The lowest objective
// wins, ties to the earlier round. Every limiter shares one deadline and
// reads the clock at most every poll'th call (see limiter.every). The
// result's effort counts every round, and its Stop classifies every round's
// stop.
func multiStart(ctx context.Context, solver string, opt Options, poll int,
	first func(tk *tracker, lim *limiter) (*layout.Layout, float64, int),
	restart func(r int, from *layout.Layout, tk *tracker, lim *limiter) (*layout.Layout, float64, int)) Result {
	deadline := budgetDeadline(opt.Budget)
	lim := newLimiterAt(ctx, deadline).every(poll)
	tk := &tracker{solver: solver, trace: opt.Trace}
	var res Result
	res.Layout, res.Objective, res.Evals = first(tk, lim)
	stops := []error{lim.stopped}
	if lim.stopped == nil {
		from := res.Layout
		outs := runRestarts(ctx, deadline, opt, func(r int, rlim *limiter) restartOutcome {
			rtk := &tracker{solver: solver, restart: r, buffer: opt.Trace != nil}
			l, obj, evals := restart(r, from, rtk, rlim.every(poll))
			return restartOutcome{layout: l, obj: obj, evals: evals, tk: rtk, stop: rlim.stopped}
		})
		for _, out := range outs {
			tk.merge(out.tk, res.Evals)
			res.Evals += out.evals
			res.Restarts++
			stops = append(stops, out.stop)
			if out.obj < res.Objective {
				res.Layout, res.Objective = out.layout, out.obj
			}
		}
	}
	res.Iters = tk.iter
	res.Stop = combineStop(stops)
	return res
}

// restartOutcome is the result of one restart's independent search.
type restartOutcome struct {
	restart int
	layout  *layout.Layout
	obj     float64
	evals   int
	tk      *tracker
	stop    error
}

// workers resolves Options.Workers: non-positive selects
// min(Restarts+1, GOMAXPROCS), and the pool is never wider than the number
// of restart tasks.
func (o Options) workers() int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if r := o.Restarts + 1; r < w {
			w = r
		}
	}
	if w > o.Restarts {
		w = o.Restarts
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runRestarts fans restarts 1..opt.Restarts over a worker pool and returns
// their outcomes sorted by restart index. Each worker pulls the next restart
// index from a shared counter, so restart identities (and with them the
// per-restart seed streams) never depend on which worker runs them. Once any
// restart observes a stop (budget or cancellation), no further restarts are
// started; in-flight ones stop at their own limiter's next poll.
//
// A panic on a worker goroutine (a cost model misbehaving mid-restart) is
// captured and re-raised on the calling goroutine after the pool drains, so
// callers' recover-based classification (core.safeSolve) keeps working.
func runRestarts(ctx context.Context, deadline time.Time, opt Options, one func(r int, lim *limiter) restartOutcome) []restartOutcome {
	total := opt.Restarts
	if total <= 0 {
		return nil
	}
	workers := opt.workers()

	var (
		next     atomic.Int64
		stopped  atomic.Bool
		mu       sync.Mutex
		outs     []restartOutcome
		panicked any
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() {
					return
				}
				r := int(next.Add(1))
				if r > total {
					return
				}
				out, p := runOne(one, r, newLimiterAt(ctx, deadline))
				mu.Lock()
				if p != nil {
					if panicked == nil {
						panicked = p
					}
					stopped.Store(true)
					mu.Unlock()
					return
				}
				outs = append(outs, out)
				mu.Unlock()
				if out.stop != nil {
					stopped.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].restart < outs[j].restart })
	return outs
}

// runOne executes one restart, converting a panic into a value so the worker
// loop can shut the pool down cleanly before re-raising it.
func runOne(one func(r int, lim *limiter) restartOutcome, r int, lim *limiter) (out restartOutcome, p any) {
	defer func() {
		if rec := recover(); rec != nil {
			p = rec
		}
	}()
	out = one(r, lim)
	out.restart = r
	return out, nil
}

// combineStop merges the stop reasons of concurrent workers into one
// classification: a context error dominates (the caller asked the whole
// solve to stop), then budget exhaustion; nil means every consulted worker
// ran to convergence or iteration exhaustion.
func combineStop(stops []error) error {
	var budget error
	for _, s := range stops {
		if s == nil {
			continue
		}
		if errors.Is(s, context.Canceled) || errors.Is(s, context.DeadlineExceeded) {
			return s
		}
		budget = s
	}
	return budget
}
