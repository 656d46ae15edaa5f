package main

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dblayout"
	"dblayout/internal/migrate"
)

// TestExitCodes pins the documented exit-code table: every failure class maps
// to its own code, wrapped or not.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{errors.New("anything else"), 1},
		{dblayout.ErrInfeasible, 2},
		{fmt.Errorf("solving: %w", dblayout.ErrBudgetExceeded), 3},
		{dblayout.ErrModelFailure, 4},
		{context.Canceled, 5},
		{context.DeadlineExceeded, 5},
		{&migrate.AbortError{Failed: []int{2}, Reason: "write failed"}, 6},
		{fmt.Errorf("executing migration: %w", migrate.ErrScratchExhausted), 7},
		{&migrate.CorruptError{Record: 3, Reason: "bad frame"}, 8},
		{fmt.Errorf("resuming: %w", migrate.ErrJournalCorrupt), 8},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
