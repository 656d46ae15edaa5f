package control

import (
	"errors"
	"testing"

	"dblayout/internal/migrate"
)

// TestRetryErrorWrapping: an exhausted retry chain is reported as exhaustion,
// never as the failure class of the cause its caller was told would be
// retried.
func TestRetryErrorWrapping(t *testing.T) {
	rerr := &RetryError{Attempts: 2, Cause: migrate.ErrMigrationAborted, Reason: "abort"}
	if !errors.Is(rerr, ErrRetriesExhausted) {
		t.Error("RetryError must unwrap to ErrRetriesExhausted")
	}
	if errors.Is(rerr, migrate.ErrMigrationAborted) {
		t.Error("RetryError must not unwrap to its cause")
	}
}
