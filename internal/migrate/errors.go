package migrate

import (
	"errors"
	"fmt"

	"dblayout/internal/layout"
)

// Sentinel errors. Callers (cmd/advisor) match these with errors.Is to map
// migration outcomes to exit codes.
var (
	// ErrMigrationAborted reports that a migration stopped because a
	// device failed mid-flight. The engine rolled the in-flight move back
	// and left the system in a consistent layout (base plus committed
	// moves); recovery proceeds by replanning, not by resuming.
	ErrMigrationAborted = errors.New("migration aborted")

	// ErrScratchExhausted reports that a plan's capacity cycles cannot be
	// broken within the configured scratch-space budget.
	ErrScratchExhausted = errors.New("migration scratch space exhausted")

	// ErrJournalCorrupt reports that a migration journal failed
	// validation (bad checksum, malformed record, or impossible state
	// transition) somewhere other than a torn final line.
	ErrJournalCorrupt = errors.New("migration journal corrupt")
)

// AbortError carries the detail of a fault-triggered abort. It unwraps to
// ErrMigrationAborted.
type AbortError struct {
	Failed []int  // targets that failed
	Reason string // what the engine observed
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("migrate: aborted, targets %v failed: %s", e.Failed, e.Reason)
}

func (e *AbortError) Unwrap() error { return ErrMigrationAborted }

// PlanOverflowError, CycleError and the plan reference checks start their
// messages with "layout:": callers and logs already match that text.

// PlanOverflowError reports a move that can never fit, whatever the order:
// its destination lacks room for the copy while the source still holds the
// data (migration is copy-then-commit, so both sides are occupied until the
// move commits), and no stalled move waits on another.
type PlanOverflowError struct {
	Step      int         // index of the offending move in the plan
	Move      layout.Move // the move that does not fit
	NeedBytes int64
	FreeBytes int64 // free bytes on Move.To when the move would execute
}

func (e *PlanOverflowError) Error() string {
	return fmt.Sprintf("layout: plan step %d moves %d bytes of object %d from target %d to target %d, but target %d has only %d bytes free at that point",
		e.Step, e.NeedBytes, e.Move.Object, e.Move.From, e.Move.To, e.Move.To, e.FreeBytes)
}

// CycleError reports a capacity deadlock in a migration plan: a set of moves
// each waiting for destination space that only another move in the set can
// free. No execution order completes such a plan without staging part of it
// through a scratch reservation.
type CycleError struct {
	Objects []int         // objects of the deadlocked moves, in cycle order
	Targets []int         // targets whose capacity is contended, in cycle order
	Moves   []layout.Move // the moves forming the cycle
}

func (e *CycleError) Error() string {
	return fmt.Sprintf("layout: migration deadlock: objects %v form a capacity cycle over targets %v; the plan needs scratch-space staging",
		e.Objects, e.Targets)
}

// ScratchError reports the scratch shortfall that made a capacity cycle
// unbreakable. It unwraps to ErrScratchExhausted.
type ScratchError struct {
	Cycle     *CycleError // the deadlock needing staging (nil when the stall is acyclic)
	NeedBytes int64       // smallest stage that would make progress
	FreeBytes int64       // unused scratch reservation at the stall
}

func (e *ScratchError) Error() string {
	return fmt.Sprintf("migrate: breaking the capacity cycle needs %d scratch bytes but only %d remain", e.NeedBytes, e.FreeBytes)
}

func (e *ScratchError) Unwrap() error { return ErrScratchExhausted }

// CorruptError pinpoints a corrupt journal record. It unwraps to
// ErrJournalCorrupt.
type CorruptError struct {
	Record int // zero-based index of the bad record
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("migrate: journal record %d: %s", e.Record, e.Reason)
}

func (e *CorruptError) Unwrap() error { return ErrJournalCorrupt }
