package control

import (
	"errors"
	"fmt"
)

// Sentinel errors, matched with errors.Is. ErrControllerCorrupt tells a
// journal's opener not to resume or append to it (the daemon quarantines such
// a journal); ErrRetriesExhausted is the controller's informational give-up.
var (
	// ErrControllerCorrupt reports that a controller journal failed
	// validation (bad frame, malformed record, impossible epoch sequence,
	// or a corrupt embedded migration segment) somewhere other than a torn
	// final line.
	ErrControllerCorrupt = errors.New("controller journal corrupt")

	// ErrRetriesExhausted reports that a drift episode burned through the
	// configured retry budget: every attempt ended in a migration abort or
	// a solve failure. The controller journals the terminal failure and
	// returns to observing after a cooldown; the error surfaces so
	// operators learn the layout is still the pre-episode one.
	ErrRetriesExhausted = errors.New("controller retries exhausted")
)

// CorruptError pinpoints a corrupt controller-journal record. It unwraps to
// ErrControllerCorrupt.
type CorruptError struct {
	Record int // zero-based frame index of the bad record
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("control: journal record %d: %s", e.Record, e.Reason)
}

func (e *CorruptError) Unwrap() error { return ErrControllerCorrupt }

// RetryError carries the detail of an exhausted retry chain. It unwraps to
// ErrRetriesExhausted.
type RetryError struct {
	Epoch    int    // the drift episode's last migration epoch (0 when no attempt started one)
	Attempts int    // attempts consumed
	Cause    error  // what the final attempt died of
	Reason   string // classification of the final failure ("abort", "advise", "plan")
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("control: gave up after %d attempts (%s): %v", e.Attempts, e.Reason, e.Cause)
}

func (e *RetryError) Unwrap() error { return ErrRetriesExhausted }
