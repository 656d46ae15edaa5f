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

// tracker counts a search's iterations and threads them to the user's trace
// hook, when one was supplied.
//
// A tracker comes in two modes. The main tracker observes the solver's first
// search live and is the merge point for everything else. Restart trackers
// run on worker goroutines and never touch the user hook: when a hook exists
// they buffer their events, otherwise they only count. After all workers
// finish, the main tracker absorbs each restart tracker in restart order
// (see merge), renumbering iterations globally and recomputing the monotone
// Best, so the delivered stream is identical for every worker count.
type tracker struct {
	solver  string
	restart int // the round every noted event is tagged with
	trace   func(TraceEvent)
	iter    int
	// best is the lowest objective delivered so far. The first search
	// sets it to the objective it starts from before noting anything.
	best float64

	// buffer, when true, makes note record into events instead of
	// delivering to trace (which is nil in that mode).
	buffer bool
	events []TraceEvent
}

// note records the outcome of one solver iteration. A buffered event's Iter
// and Best are left for merge to fill in.
func (tk *tracker) note(objective float64, accepted bool, temp float64, evals int) {
	if tk.trace == nil && !tk.buffer {
		tk.iter++
		return
	}
	ev := TraceEvent{
		Solver:    tk.solver,
		Restart:   tk.restart,
		Objective: objective,
		Accepted:  accepted,
		Temp:      temp,
		Evals:     evals,
	}
	if tk.buffer {
		tk.iter++
		tk.events = append(tk.events, ev)
		return
	}
	tk.deliver(ev)
}

// deliver numbers ev as the next global iteration, folds its objective into
// the running Best and hands it to the hook.
func (tk *tracker) deliver(ev TraceEvent) {
	tk.iter++
	if ev.Objective < tk.best {
		tk.best = ev.Objective
	}
	ev.Iter = tk.iter
	ev.Best = tk.best
	tk.trace(ev)
}

// merge absorbs one restart tracker into the main tracker: its iterations
// continue the global count and, when a user hook is installed, its buffered
// events are delivered in order with their evaluation counts shifted by
// evalsBefore, the evaluations every earlier search spent. Callers must merge
// restarts in ascending restart order to keep the delivered stream
// deterministic.
func (tk *tracker) merge(rt *tracker, evalsBefore int) {
	if tk.trace == nil {
		tk.iter += rt.iter
		return
	}
	for _, ev := range rt.events {
		ev.Evals += evalsBefore
		tk.deliver(ev)
	}
}
