package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dblayout"
	"dblayout/internal/costmodel"
	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
	"dblayout/internal/migrate"
)

// executeFixture is a three-object problem on disk15k targets whose current
// layout is all on disk0. executeMigration simulates the devices directly, so
// the reader is handed a stand-in cost model instead of calibrating one.
func executeFixture(t *testing.T) *dblayout.Document {
	t.Helper()
	doc, err := dblayout.ReadDocument([]byte(`{
		"objects": [
			{"name": "A", "size_mb": 48}, {"name": "B", "size_mb": 48}, {"name": "C", "size_mb": 48}
		],
		"targets": [
			{"name": "disk0", "capacity_mb": 1024, "model": "disk15k"},
			{"name": "disk1", "capacity_mb": 1024, "model": "disk15k"},
			{"name": "disk2", "capacity_mb": 1024, "model": "disk15k"}
		],
		"workloads": {"workloads": [
			{"name": "A", "read_size": 8192, "read_rate": 10, "run_count": 1},
			{"name": "B", "read_size": 8192, "read_rate": 10, "run_count": 1},
			{"name": "C", "read_size": 8192, "read_rate": 10, "run_count": 1}
		]},
		"current": [[1, 0, 0], [1, 0, 0], [1, 0, 0]]
	}`), func(string) (*costmodel.Model, error) { return layouttest.DiskModel(), nil })
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func layoutOf(rows ...[]float64) *layout.Layout {
	l := layout.New(len(rows), len(rows[0]))
	for i, r := range rows {
		l.SetRow(i, r)
	}
	return l
}

// journalRecords decodes a -journal file, torn tail ignored.
func journalRecords(t *testing.T, path string) []migrate.Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records, err := migrate.DecodeJournal(data)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return records
}

// TestExecuteJournalResume drives -execute -journal through the
// crash-at-every-record schedule: the journal of one full run is cut at every
// record boundary, once cleanly and once followed by a torn partial record,
// and the re-run must complete with every step committed exactly once. A
// finished journal appends nothing; a journal written for a different
// problem is refused with exit code 8.
func TestExecuteJournalResume(t *testing.T) {
	doc := executeFixture(t)
	target := layoutOf([]float64{0, 1, 0}, []float64{0, 0, 1}, []float64{0, 1, 0})
	opt := func(path string) executeOptions { return executeOptions{journalPath: path, queueShare: 0.5} }
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	if err := executeMigration(doc, target, opt(full)); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	records := journalRecords(t, full)
	steps := len(records[0].Steps)
	if steps != 3 || len(records) < 10 {
		t.Fatalf("journal has %d records for %d steps; want a rich three-step journal", len(records), steps)
	}
	ends := []int{0}
	for i, b := range journal {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}

	n := len(ends) - 1
	for k := 0; k <= n; k++ {
		for _, torn := range []bool{false, true} {
			if torn && k == n {
				continue
			}
			prefix := append([]byte(nil), journal[:ends[k]]...)
			if torn {
				prefix = append(prefix, journal[ends[k]:(ends[k]+ends[k+1])/2]...)
			}
			path := filepath.Join(dir, fmt.Sprintf("cut%d_torn%v.wal", k, torn))
			if err := os.WriteFile(path, prefix, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := executeMigration(doc, target, opt(path)); err != nil {
				t.Fatalf("cut %d torn=%v: re-run: %v", k, torn, err)
			}
			recs := journalRecords(t, path)
			ck, err := migrate.Recover(recs)
			if err != nil || !ck.Done {
				t.Fatalf("cut %d torn=%v: journal recovers done=%v err=%v", k, torn, ck != nil && ck.Done, err)
			}
			commits := map[int]int{}
			for _, r := range recs {
				if r.T == "state" && r.State == migrate.StateCommitted.String() {
					commits[r.Step]++
				}
			}
			for s := 0; s < steps; s++ {
				if commits[s] != 1 {
					t.Fatalf("cut %d torn=%v: step %d committed %d times", k, torn, s, commits[s])
				}
			}
		}
	}

	// A finished journal resumes to "done" without appending anything.
	if err := executeMigration(doc, target, opt(full)); err != nil {
		t.Fatalf("re-run on a finished journal: %v", err)
	}
	if again, err := os.ReadFile(full); err != nil || !bytes.Equal(again, journal) {
		t.Fatalf("re-run on a finished journal changed it (%d -> %d bytes, err %v)", len(journal), len(again), err)
	}

	// A journal written for a different plan is refused as corrupt.
	other := layoutOf([]float64{0, 0, 1}, []float64{0, 1, 0}, []float64{1, 0, 0})
	err = executeMigration(doc, other, opt(full))
	if code := exitCode(err); code != 8 {
		t.Fatalf("journal for a different problem: exit %d (%v), want 8", code, err)
	}
}

// TestExecuteRefusesModelsWithoutSimulator pins that -execute refuses a
// target whose cost model came inline, since no device stands behind it.
func TestExecuteRefusesModelsWithoutSimulator(t *testing.T) {
	doc := executeFixture(t)
	doc.Models[1] = "" // as the reader records a model_json target
	err := executeMigration(doc, doc.Current, executeOptions{queueShare: 0.5})
	if err == nil || !strings.HasPrefix(err.Error(), `target "disk1": -execute simulates built-in device types only`) {
		t.Fatalf("got %v", err)
	}
}
