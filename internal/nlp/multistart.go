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

// restartOutcome is the result of one restart's independent search.
type restartOutcome struct {
	restart int
	layout  *layout.Layout
	obj     float64
	iters   int
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

// mergeOutcomes folds restart outcomes (already sorted by restart index)
// into the main tracker and result: trace/trajectory merging, effort
// accounting, deterministic best selection (strictly lower objective wins,
// so ties keep the earliest restart), and stop classification.
func mergeOutcomes(res *Result, tk *tracker, outs []restartOutcome, best *layout.Layout, bestObj float64, firstStop error) (*layout.Layout, float64) {
	tk.evals = res.Evals // restart evaluation counts continue after phase 0's
	stops := []error{firstStop}
	for _, out := range outs {
		tk.merge(out.tk, out.evals)
		res.Evals += out.evals
		res.Restarts++
		stops = append(stops, out.stop)
		if out.obj < bestObj {
			bestObj = out.obj
			best = out.layout
		}
	}
	res.Iters = tk.iter
	res.Stop = combineStop(stops)
	return best, bestObj
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
