package migrate

import (
	"fmt"

	"dblayout/internal/benchdb"
	"dblayout/internal/layout"
	"dblayout/internal/replay"
	"dblayout/internal/wal"
)

// ExecuteResult bundles the migration outcome with the replay run it was
// interleaved with.
type ExecuteResult struct {
	Migration *Result
	Replay    *replay.OLAPResult
	Plan      []layout.Move
	Script    []Step
}

// Execute runs the online migration from current to target against the
// simulated system: it computes the plan, builds a capacity-safe script
// (staging through opt.Scratch where cycles demand it), and drives the copy
// stream as throttled background I/O interleaved with the foreground
// workload w (nil w runs the migration against an idle system).
//
// When opt.Resume holds a prior journal, Execute recovers it, verifies the
// script matches, and continues from the checkpoint; opt.Journal should
// then be the same journal opened for append, so the combined file remains
// a single replayable history.
//
// Execute returns the partial result alongside the error when the
// migration aborts on a device fault (errors.Is(err, ErrMigrationAborted))
// or crashes on a journal write failure.
func Execute(sys *replay.System, current, target *layout.Layout, w *benchdb.OLAPWorkload, ropt replay.Options, opt Options) (*ExecuteResult, error) {
	opt = opt.withDefaults()
	sizes := make([]int64, len(sys.Objects))
	for i, o := range sys.Objects {
		sizes[i] = o.Size
	}
	caps := make([]int64, len(sys.Devices))
	for j := range sys.Devices {
		caps[j] = sys.Devices[j].Capacity()
	}
	plan, err := layout.MigrationPlan(current, target, sizes)
	if err != nil {
		return nil, err
	}
	steps, err := BuildScript(current, plan, sizes, caps, opt.Scratch)
	if err != nil {
		return nil, err
	}
	if len(steps) == 0 {
		// Layouts already agree: nothing to move, nothing to journal.
		return &ExecuteResult{
			Migration: &Result{Done: true, Layout: current.Clone()},
			Plan:      plan,
		}, nil
	}

	if records, derr := DecodeJournal(wal.TruncateTorn(opt.Resume)); derr != nil {
		return nil, derr
	} else if len(records) > 0 {
		ck, err := Recover(records)
		if err != nil {
			return nil, err
		}
		if err := checkResumable(ck, steps); err != nil {
			return nil, err
		}
		if ck.Aborted {
			return nil, fmt.Errorf("migrate: journal records an abort on targets %v; replan with RecommendRepair instead of resuming: %w",
				ck.Failed, ErrMigrationAborted)
		}
		if ck.Done {
			// Nothing left to execute; report the completed state.
			res := &Result{
				Steps: ck.Steps, State: ck.State, Done: true,
				Committed:      ck.CommittedSteps(),
				CommittedBytes: ck.CommittedBytes(),
				Layout:         current.Clone(),
			}
			for i, st := range ck.State {
				if st == StateCommitted {
					applyStep(res.Layout, ck.Steps[i])
				}
			}
			return &ExecuteResult{Migration: res, Plan: plan, Script: steps}, nil
		}
		opt.Checkpoint = ck
	}

	mapper := opt.MapperLayout
	if mapper == nil {
		mapper = current
	}
	var mres *Result
	ropt.Background = func(sim *replay.BackgroundIO) {
		eng, err := NewEngine(sim, current, steps, opt, func(r *Result) { mres = r })
		if err != nil {
			// NewEngine's validations all depend only on inputs checked
			// above; reaching this is a bug, not an input error.
			panic(err)
		}
		eng.Start()
	}
	var rres *replay.OLAPResult
	if w == nil {
		rres, err = replay.RunIdle(sys, mapper, ropt)
	} else {
		rres, err = replay.RunOLAP(sys, mapper, w, ropt)
	}
	out := &ExecuteResult{Migration: mres, Replay: rres, Plan: plan, Script: steps}
	if err != nil {
		// A crashed or aborted engine stops scheduling events, so the
		// replay layer may report its own error for the same incident
		// (e.g. RunIdle with nothing pending); prefer the engine's.
		if mres != nil && mres.Err != nil {
			return out, mres.Err
		}
		return out, err
	}
	if mres == nil {
		return out, fmt.Errorf("migrate: foreground workload finished before the migration (raise replay MaxSimTime?)")
	}
	if mres.Err != nil {
		return out, mres.Err
	}
	return out, nil
}

// checkResumable verifies a recovered checkpoint belongs to the script we
// are about to execute.
func checkResumable(ck *Checkpoint, steps []Step) error {
	if len(ck.Steps) != len(steps) {
		return fmt.Errorf("migrate: journal plans %d steps, current problem needs %d: %w",
			len(ck.Steps), len(steps), ErrJournalCorrupt)
	}
	for i := range steps {
		if ck.Steps[i] != steps[i] {
			return fmt.Errorf("migrate: journal step %d (%s %+v) does not match the current plan (%s %+v): %w",
				i, ck.Steps[i].Kind, ck.Steps[i].Move, steps[i].Kind, steps[i].Move, ErrJournalCorrupt)
		}
	}
	return nil
}
