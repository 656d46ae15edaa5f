package nlp

import (
	"context"
	"errors"
	"time"
)

// ErrBudgetExceeded reports that a solver stopped because its time budget
// (Options.Budget) ran out before the search converged. The solver still
// returns its best layout found so far; the error only classifies why the
// search ended (Result.Stop).
var ErrBudgetExceeded = errors.New("solve budget exceeded")

// checkInterval is how often the solvers consult the wall clock and the
// context between iterations. Improvement iterations on large instances cost
// far more than this, so the interval — not the iteration granularity —
// bounds how promptly a cancellation is observed.
const checkInterval = 5 * time.Millisecond

// limiter implements the solvers' periodic cancellation and budget checks.
// Consulting a context and the wall clock on every iteration would be wasted
// work for cheap iterations (annealing moves cost two evaluations), so the
// limiter polls time only every `stride` calls and remembers a stop decision
// once made.
type limiter struct {
	ctx      context.Context
	deadline time.Time // zero = no budget
	stride   int
	calls    int
	lastPoll time.Time
	stopped  error
}

// budgetDeadline converts a budget into the absolute deadline shared by
// every limiter of one solve. Deriving it once up front matters for the
// parallel path: worker limiters are created as restarts are scheduled, and
// computing now+budget at each creation would silently extend the budget.
// A zero budget returns the zero time (unbounded).
func budgetDeadline(budget time.Duration) time.Time {
	if budget <= 0 {
		return time.Time{}
	}
	return time.Now().Add(budget)
}

// newLimiterAt builds a limiter against an absolute deadline (zero =
// unbounded). A nil context is treated as context.Background(). Limiters
// are single-goroutine state; concurrent workers each get their own against
// the same deadline.
func newLimiterAt(ctx context.Context, deadline time.Time) *limiter {
	if ctx == nil {
		ctx = context.Background()
	}
	return &limiter{ctx: ctx, stride: 1, deadline: deadline}
}

// every sets the polling stride for solvers with very cheap iterations.
func (l *limiter) every(stride int) *limiter {
	if stride > 1 {
		l.stride = stride
	}
	return l
}

// stop returns the reason the solver must stop (context error or
// ErrBudgetExceeded), or nil to continue. The decision is sticky. The
// context and the deadline are consulted at most once per checkInterval
// (and, for strided limiters, at most once per stride calls), so the cost
// of the checks is bounded regardless of iteration granularity while a
// cancellation is still observed within one check interval.
func (l *limiter) stop() error {
	if l.stopped != nil {
		return l.stopped
	}
	l.calls++
	if l.calls%l.stride != 0 {
		return nil
	}
	now := time.Now()
	if !l.lastPoll.IsZero() && now.Sub(l.lastPoll) < checkInterval {
		return nil
	}
	l.lastPoll = now
	if err := l.ctx.Err(); err != nil {
		l.stopped = err
		return err
	}
	if !l.deadline.IsZero() && !now.Before(l.deadline) {
		l.stopped = ErrBudgetExceeded
		return ErrBudgetExceeded
	}
	return nil
}
