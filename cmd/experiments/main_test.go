package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: started with
// EXPERIMENTS_TEST_MAIN=1 in its environment, it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command on args and returns its stdout, its stderr
// and its exit status.
func runMain(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", "", 0
}

// TestUnknownStudyExits2 runs the command on names that are no study,
// including a study's name in the wrong case: it exits 2 and lists the valid
// names in -run all order, before it opens any output (so before it
// calibrates anything).
func TestUnknownStudyExits2(t *testing.T) {
	const valid = "all, fig8, fig11, fig15, fig17, fig18, fig19, ablation, degraded, " +
		"migration, drift, autonomic, chaos, fleet, fig20"
	for _, name := range []string{"fig99", "Fig8", ""} {
		trace := filepath.Join(t.TempDir(), "solver.jsonl")
		stdout, stderr, code := runMain(t, "-run", name, "-quick", "-trace-out", trace)
		want := fmt.Sprintf("experiments: unknown study %q; valid: %s\n", name, valid)
		if code != 2 || stdout != "" || stderr != want {
			t.Errorf("-run %q: exit %d, stdout %q, stderr %q; want exit 2, no stdout and %q",
				name, code, stdout, stderr, want)
		}
		if _, err := os.Stat(trace); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("-run %q: the refused run opened -trace-out (stat: %v)", name, err)
		}
	}
}

// TestRunOneStudy runs one study by name: the command prints that study's
// section alone and exits 0.
func TestRunOneStudy(t *testing.T) {
	stdout, stderr, code := runMain(t, "-run", "chaos", "-seeds", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	const head = "=== CHAOS ===\nChaos campaign — crash-safe controller under fault injection:\n" +
		"chaos campaign: 2 scenarios, all invariants held\n"
	if !strings.HasPrefix(stdout, head) || strings.Count(stdout, "===") != 2 ||
		!strings.Contains(stdout, "\n(chaos completed in ") {
		t.Errorf("stdout is not the chaos section alone:\n%s", stdout)
	}
}

// TestStudiesObserveEveryAdvise runs the two studies that build their own
// advisors with -trace-out and -metrics-out: each writes solver trace lines
// and both whole-advise effort counters, as the studies that advise through
// the shared helper do.
func TestStudiesObserveEveryAdvise(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates and replays OLAP1-63")
	}
	counter := regexp.MustCompile(`(?m)^solver_(iters|evals)_total [1-9]`)
	for _, study := range []string{"ablation", "fleet"} {
		dir := t.TempDir()
		trace, metrics := filepath.Join(dir, "solver.jsonl"), filepath.Join(dir, "metrics.prom")
		_, stderr, code := runMain(t, "-run", study, "-quick", "-trace-out", trace, "-metrics-out", metrics)
		if code != 0 {
			t.Fatalf("-run %s: exit %d, stderr %q", study, code, stderr)
		}
		lines, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		prom, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(lines, []byte("\n")); n == 0 {
			t.Errorf("-run %s wrote no solver trace lines", study)
		}
		if got := counter.FindAll(prom, -1); len(got) != 2 {
			t.Errorf("-run %s: metrics carry %d of the two positive effort counters:\n%s", study, len(got), prom)
		}
	}
}
