package nlp

// TraceEvent is one solver-iteration observation, delivered synchronously to
// Options.Trace. Events are emitted after the iteration's accept/reject
// decision, so Objective is the objective the search holds going into the
// next iteration. The JSON field names are the cmd/advisor --trace-out
// JSONL schema.
type TraceEvent struct {
	// Solver names the emitting strategy: "transfer",
	// "projected-gradient", or "anneal".
	Solver string `json:"solver"`
	// Restart is the perturbation round the iteration belongs to
	// (0 = the first descent).
	Restart int `json:"restart"`
	// Iter is the global iteration number across restarts, starting at 1.
	Iter int `json:"iter"`
	// Objective is the current (post-decision) max target utilization.
	Objective float64 `json:"objective"`
	// Best is the lowest objective seen so far, across restarts.
	Best float64 `json:"best"`
	// Accepted reports whether the iteration's move was kept.
	Accepted bool `json:"accepted"`
	// Temp is the annealing temperature (0 for the other solvers).
	Temp float64 `json:"temp,omitempty"`
	// Evals is the cumulative count of target utilizations considered,
	// as Result.Evals counts them: candidates considered, not kernel
	// probes.
	Evals int `json:"evals"`
}

// TrajPoint is one sample of a solver's objective trajectory.
type TrajPoint struct {
	Iter      int     `json:"iter"`
	Objective float64 `json:"objective"`
	Best      float64 `json:"best"`
}

// maxTrajPoints bounds Result.Trajectory. When the reservoir fills, every
// other retained point is dropped and the sampling stride doubles, so the
// summary stays O(1) in memory regardless of iteration count while keeping
// samples spread across the whole run.
const maxTrajPoints = 256

// trajectory is the bounded deterministic reservoir behind Result.Trajectory.
type trajectory struct {
	points []TrajPoint
	stride int
}

func (t *trajectory) add(p TrajPoint) {
	if t.stride == 0 {
		t.stride = 1
	}
	if p.Iter%t.stride != 0 {
		return
	}
	t.points = append(t.points, p)
	if len(t.points) >= maxTrajPoints {
		kept := t.points[:0]
		for i := 0; i < len(t.points); i += 2 {
			kept = append(kept, t.points[i])
		}
		t.points = kept
		t.stride *= 2
	}
}

// tracker threads tracing and trajectory recording through a solver run. It
// is always active — the trajectory summary is cheap (an integer modulo per
// iteration and a bounded slice) — but only invokes the user hook when one
// was supplied.
//
// A tracker comes in two modes. The main tracker (newTracker) observes the
// solver's first descent live and is the merge point for everything else.
// Restart trackers (newRestartTracker) run on worker goroutines: they never
// touch the user hook or the shared trajectory; they record a bounded local
// trajectory plus — only when a user hook exists and the events must
// eventually be delivered — the full event sequence. After all workers
// finish, the main tracker absorbs each restart tracker in restart order
// (see merge), renumbering iterations globally and recomputing the monotone
// Best, so the delivered stream is identical for every worker count.
type tracker struct {
	solver string
	trace  func(TraceEvent)
	traj   trajectory
	iter   int
	best   float64
	evals  int // evaluation count offset applied when merging restarts

	// buffer, when true, makes note record into events instead of
	// delivering to trace (which is nil in that mode).
	buffer bool
	events []TraceEvent
}

// newTracker seeds the tracker with the initial objective as iteration 0.
func newTracker(solver string, trace func(TraceEvent), initial float64) *tracker {
	tk := &tracker{solver: solver, trace: trace, best: initial}
	tk.traj.add(TrajPoint{Iter: 0, Objective: initial, Best: initial})
	return tk
}

// newRestartTracker builds a worker-local tracker for one restart. When
// keepEvents is false (no user hook installed on the main tracker) only the
// bounded trajectory is recorded, so memory stays O(1) per restart.
func newRestartTracker(solver string, initial float64, keepEvents bool) *tracker {
	return &tracker{solver: solver, best: initial, buffer: keepEvents}
}

// note records the outcome of one solver iteration.
func (tk *tracker) note(restart int, objective float64, accepted bool, temp float64, evals int) {
	tk.iter++
	if objective < tk.best {
		tk.best = objective
	}
	tk.traj.add(TrajPoint{Iter: tk.iter, Objective: objective, Best: tk.best})
	if tk.trace == nil && !tk.buffer {
		return
	}
	ev := TraceEvent{
		Solver:    tk.solver,
		Restart:   restart,
		Iter:      tk.iter,
		Objective: objective,
		Best:      tk.best,
		Accepted:  accepted,
		Temp:      temp,
		Evals:     evals,
	}
	if tk.buffer {
		tk.events = append(tk.events, ev)
		return
	}
	tk.trace(ev)
}

// merge absorbs one restart tracker's recording into the main tracker:
// iterations are renumbered to continue the global count, Best is recomputed
// so it stays monotone across the merged stream, evaluation counts are
// shifted to stay cumulative in merge order, and — when a user hook is
// installed — the restart's buffered events are delivered in order. Callers
// must merge restarts in ascending restart order to keep the delivered
// stream deterministic.
func (tk *tracker) merge(rt *tracker, restartEvals int) {
	base := tk.iter
	if rt.buffer && tk.trace != nil {
		for _, ev := range rt.events {
			tk.iter++
			if ev.Objective < tk.best {
				tk.best = ev.Objective
			}
			ev.Iter = tk.iter
			ev.Best = tk.best
			ev.Evals += tk.evals
			tk.traj.add(TrajPoint{Iter: ev.Iter, Objective: ev.Objective, Best: tk.best})
			tk.trace(ev)
		}
	} else {
		// No event stream to replay: fold the restart's bounded
		// trajectory into the shared one with shifted iteration numbers.
		for _, p := range rt.traj.points {
			b := p.Best
			if tk.best < b {
				b = tk.best
			}
			tk.traj.add(TrajPoint{Iter: base + p.Iter, Objective: p.Objective, Best: b})
		}
		tk.iter += rt.iter
		if rt.best < tk.best {
			tk.best = rt.best
		}
	}
	tk.evals += restartEvals
}

// finish stores the trajectory summary on the result.
func (tk *tracker) finish(res *Result) {
	res.Trajectory = tk.traj.points
}
