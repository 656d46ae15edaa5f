package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"dblayout"
	"dblayout/internal/layouttest"
	"dblayout/internal/migrate"
)

// TestMain lets the test binary stand in for the advisor: started with
// ADVISOR_TEST_MAIN=1 in its environment, it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("ADVISOR_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRefusedDocumentExitsBeforeCalibrating runs the advisor on a document
// whose "current" layout overflows disk0: it exits 1 with the problem-
// document reader's message, the daemon's 422 text, before calibrating any
// model.
func TestRefusedDocumentExitsBeforeCalibrating(t *testing.T) {
	path := filepath.Join(t.TempDir(), "problem.json")
	if err := os.WriteFile(path, []byte(`{
		"objects": [
			{"name": "ORDERS", "size_mb": 288, "kind": "table"},
			{"name": "LINEITEM", "size_mb": 240, "kind": "table"},
			{"name": "ORDERS_PK", "size_mb": 96, "kind": "index"}
		],
		"targets": [
			{"name": "disk0", "capacity_mb": 500, "model": "disk15k"},
			{"name": "disk1", "capacity_mb": 1024, "model": "disk15k"},
			{"name": "disk2", "capacity_mb": 1024, "model": "disk15k"}
		],
		"workloads": {"workloads": [
			{"name": "ORDERS", "read_size": 131072, "read_rate": 100, "run_count": 64},
			{"name": "LINEITEM", "read_size": 131072, "read_rate": 100, "run_count": 64},
			{"name": "ORDERS_PK", "read_size": 8192, "read_rate": 150, "run_count": 1}
		]},
		"current": [[1, 0, 0], [1, 0, 0], [1, 0, 0]]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-problem", path, "-execute")
	cmd.Env = append(os.Environ(), "ADVISOR_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	const want = "advisor: current layout: layout: target 0 assigned 654311424 bytes, capacity 524288000\n"
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || string(out) != want {
		t.Fatalf("exit %v, output %q; want status 1 and %q", err, out, want)
	}
}

// TestExecuteRefusesBeforeSolving runs the advisor with -execute on
// documents with a target it cannot simulate: it exits 1 with the refusal
// and nothing else, so it neither solves nor prints a layout, and for an
// "@file" target (the file need not exist) it calibrates no model either.
func TestExecuteRefusesBeforeSolving(t *testing.T) {
	var model bytes.Buffer
	if err := layouttest.DiskModel().Save(&model); err != nil {
		t.Fatal(err)
	}
	const refusal = "-execute simulates built-in device types only; " +
		`an "@file" or model_json cost model has no simulator configuration`
	inline := `"model_json": ` + model.String()
	for _, c := range []struct {
		name, disk0, disk1, refused string
	}{
		{"@file", `"model": "disk15k"`, `"model": "@ssd.json"`, "disk1"},
		// No built-in target: the reader calibrates nothing here either.
		{"model_json", inline, inline, "disk0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "problem.json")
			if err := os.WriteFile(path, []byte(`{
				"objects": [{"name": "A", "size_mb": 48}, {"name": "B", "size_mb": 48}],
				"targets": [
					{"name": "disk0", "capacity_mb": 1024, `+c.disk0+`},
					{"name": "disk1", "capacity_mb": 1024, `+c.disk1+`}
				],
				"workloads": {"workloads": [
					{"name": "A", "read_size": 8192, "read_rate": 10, "run_count": 1},
					{"name": "B", "read_size": 8192, "read_rate": 10, "run_count": 1}
				]}
			}`), 0o644); err != nil {
				t.Fatal(err)
			}
			exe, err := os.Executable()
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(exe, "-problem", path, "-execute")
			cmd.Env = append(os.Environ(), "ADVISOR_TEST_MAIN=1")
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			want := fmt.Sprintf("advisor: target %q: %s\n", c.refused, refusal)
			if !errors.As(err, &exit) || exit.ExitCode() != 1 || string(out) != want {
				t.Fatalf("exit %v, output %q; want status 1 and %q", err, out, want)
			}
		})
	}
}

// TestEffortCountsWholeAdvise runs a portfolio advise, which solves from two
// starts over two rounds with each of three solvers, with -utilizations and
// -trace-out: the printed iteration count covers every one of those solves,
// so it equals the number of trace lines, one per iteration.
func TestEffortCountsWholeAdvise(t *testing.T) {
	var model bytes.Buffer
	if err := layouttest.DiskModel().Save(&model); err != nil {
		t.Fatal(err)
	}
	disk := `"capacity_mb": 1024, "model_json": ` + model.String()
	dir := t.TempDir()
	path := filepath.Join(dir, "problem.json")
	if err := os.WriteFile(path, []byte(`{
		"objects": [
			{"name": "A", "size_mb": 96}, {"name": "B", "size_mb": 96},
			{"name": "C", "size_mb": 48}, {"name": "D", "size_mb": 48}
		],
		"targets": [
			{"name": "disk0", `+disk+`},
			{"name": "disk1", `+disk+`},
			{"name": "disk2", `+disk+`}
		],
		"workloads": {"workloads": [
			{"name": "A", "read_size": 131072, "read_rate": 120, "run_count": 64},
			{"name": "B", "read_size": 8192, "read_rate": 150, "run_count": 1},
			{"name": "C", "read_size": 8192, "read_rate": 60, "write_size": 8192, "write_rate": 40, "run_count": 1},
			{"name": "D", "read_size": 65536, "read_rate": 30, "run_count": 16}
		]}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(dir, "t.jsonl")
	cmd := exec.Command(exe, "-problem", path, "-portfolio", "-utilizations", "-trace-out", trace)
	cmd.Env = append(os.Environ(), "ADVISOR_TEST_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("advisor: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`solver effort: (\d+) iterations`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no effort line in output:\n%s", out)
	}
	iters, err := strconv.Atoi(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(data, []byte("\n")); iters == 0 || lines != iters {
		t.Fatalf("advisor printed %d iterations, -trace-out holds %d lines", iters, lines)
	}
}

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
