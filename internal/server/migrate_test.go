package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dblayout"
	"dblayout/internal/control"
	"dblayout/internal/layout"
	"dblayout/internal/wal"
)

// Everything on d0; the migration target spreads the three big objects out.
var (
	allOnD0 = [][]float64{{1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}}
	spread  = [][]float64{{0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}, {1, 0, 0, 0}}
)

// waitMigrationIdle polls GET /migration until no migration is active.
func waitMigrationIdle(t testing.TB, client *http.Client, base string) map[string]interface{} {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := migrationStatus(t, client, base)
		if st["active"] != true {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("migration still active: %v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// currentRows fetches the tenant's current layout and object count.
func currentRows(t testing.TB, client *http.Client, base string) ([][]float64, int) {
	t.Helper()
	code, info := do(t, client, "GET", base, nil)
	if code != http.StatusOK {
		t.Fatalf("GET tenant: %d %v", code, info)
	}
	var rows [][]float64
	for _, r := range info["current"].([]interface{}) {
		var row []float64
		for _, v := range r.([]interface{}) {
			row = append(row, v.(float64))
		}
		rows = append(rows, row)
	}
	return rows, len(info["objects"].([]interface{}))
}

// send issues one request from a goroutine other than the test's: failures
// are reported with t.Error, and the status code is 0 on a transport error.
func send(t testing.TB, client *http.Client, method, url string, body []byte) int {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err == nil {
		var resp *http.Response
		if resp, err = client.Do(req); err == nil {
			resp.Body.Close()
			return resp.StatusCode
		}
	}
	t.Error(err)
	return 0
}

func rowsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestDaemonCrashAtEveryJournalRecord runs the daemon's migration path
// through the crash-at-every-record schedule. One migration runs to
// completion; then, for every record boundary of its journal, a fresh daemon
// restores from the journal cut there — once cleanly, once with a torn
// partial record after the cut — and must finish the migration exactly once:
// the target layout, every step committed once, one coutcome, no open epoch.
// A cut before the cplan keeps the document's layout and starts nothing; a
// flipped byte inside a durable record quarantines the journal.
func TestDaemonCrashAtEveryJournalRecord(t *testing.T) {
	opt := func(dir string) Options {
		return Options{DataDir: dir, SimBytesPerSec: 64 << 20, SimStep: 0.05, PumpInterval: time.Millisecond}
	}
	dir := t.TempDir()
	s, h := newTestServer(t, opt(dir))
	client := h.Client()
	base := h.URL + "/v1/tenants/acme"
	if code, resp := do(t, client, "PUT", base, testDoc(t, allOnD0)); code != http.StatusOK {
		t.Fatalf("PUT: %d %v", code, resp)
	}
	code, resp := do(t, client, "POST", base+"/migrate", map[string]interface{}{
		"target": spread, "chunk_bytes": 1 << 20, "checkpoint_bytes": 1 << 20,
	})
	if code != http.StatusOK || resp["started"] != true {
		t.Fatalf("migrate: %d %v", code, resp)
	}
	steps := int(resp["moves"].(float64))
	waitMigrationIdle(t, client, base)
	h.Close()
	s.Close()

	doc, err := os.ReadFile(filepath.Join(dir, "acme.problem.json"))
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(dir, "acme.journal"))
	if err != nil {
		t.Fatal(err)
	}
	ends := []int{0} // ends[k] is the byte length of the first k records
	planAt := -1     // records up to and including the cplan
	for i, b := range journal {
		if b != '\n' {
			continue
		}
		line := journal[ends[len(ends)-1]:i]
		if planAt < 0 && bytes.Contains(line, []byte(`"t":"cplan"`)) {
			planAt = len(ends)
		}
		ends = append(ends, i+1)
	}
	n := len(ends) - 1
	if n < 20 || planAt != 2 {
		t.Fatalf("journal has %d records, cplan at %d; want a rich one-epoch journal", n, planAt)
	}

	restore := func(t *testing.T, prefix []byte) (string, *http.Client, string) {
		t.Helper()
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, "acme.problem.json"), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "acme.journal"), prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, h2 := newTestServer(t, opt(d))
		base2 := h2.URL + "/v1/tenants/acme"
		waitMigrationIdle(t, h2.Client(), base2)
		s2.wg.Wait()
		return d, h2.Client(), base2
	}

	for k := 0; k <= n; k++ {
		for _, torn := range []bool{false, true} {
			if torn && k == n {
				continue
			}
			prefix := append([]byte(nil), journal[:ends[k]]...)
			if torn {
				prefix = append(prefix, journal[ends[k]:(ends[k]+ends[k+1])/2]...)
			}
			t.Run(fmt.Sprintf("cut%d_torn%v", k, torn), func(t *testing.T) {
				d, client2, base2 := restore(t, prefix)
				rows, _ := currentRows(t, client2, base2)
				if k < planAt {
					if !rowsEqual(rows, allOnD0) {
						t.Fatalf("cut before cplan moved the layout: %v", rows)
					}
					if st := migrationStatus(t, client2, base2); st["epoch"] != nil {
						t.Fatalf("cut before cplan started a migration: %v", st)
					}
					return
				}
				if !rowsEqual(rows, spread) {
					t.Fatalf("restored layout %v, want %v", rows, spread)
				}
				path := filepath.Join(d, "acme.journal")
				final := readJournalCommits(t, path)
				if !final.done || final.outcomes != 1 || len(final.commits) != steps {
					t.Fatalf("journal: done=%v outcomes=%d commits=%v, want done, 1, %d steps",
						final.done, final.outcomes, final.commits, steps)
				}
				for step, c := range final.commits {
					if c != 1 {
						t.Errorf("step %d committed %d times", step, c)
					}
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				ck, err := control.Recover(data)
				if err != nil {
					t.Fatalf("journal does not recover cleanly: %v", err)
				}
				if ck.Open != nil || !rowsEqual(layoutRows(ck.Current), spread) {
					t.Fatalf("recovered open=%v current=%v", ck.Open != nil, layoutRows(ck.Current))
				}
			})
		}
	}

	t.Run("flipped byte", func(t *testing.T) {
		bad := append([]byte(nil), journal...)
		bad[(ends[3]+ends[4])/2] ^= 0x5a
		d, client2, base2 := restore(t, bad)
		if _, err := os.Stat(filepath.Join(d, "acme.journal.corrupt")); err != nil {
			t.Fatalf("corrupt journal not quarantined: %v", err)
		}
		if _, err := os.Stat(filepath.Join(d, "acme.journal")); !os.IsNotExist(err) {
			t.Fatalf("corrupt journal left in place: %v", err)
		}
		if rows, _ := currentRows(t, client2, base2); !rowsEqual(rows, allOnD0) {
			t.Fatalf("corrupt journal moved the layout: %v", rows)
		}
	})
}

// TestStateUpdatesSurviveMigrationFinish pins two races between tenant-state
// updates and a migration's start and finish. Workload uploads racing the
// install of a finished migration must not revert its layout, and a document
// replacement racing /migrate must never leave a migration running for (and
// later installing its layout onto) a document it was not planned for.
func TestStateUpdatesSurviveMigrationFinish(t *testing.T) {
	t.Run("workload uploads while migrations finish", func(t *testing.T) {
		_, h := newTestServer(t, Options{DataDir: t.TempDir(), SimBytesPerSec: 1 << 30, SimStep: 1,
			PumpInterval: time.Millisecond})
		client := h.Client()
		base := h.URL + "/v1/tenants/acme"
		if code, resp := do(t, client, "PUT", base, testDoc(t, allOnD0)); code != http.StatusOK {
			t.Fatalf("PUT: %d %v", code, resp)
		}
		wl, err := json.Marshal(map[string]interface{}{"workloads": []*dblayout.Workload{
			{Name: "T1", ReadSize: 8192, ReadRate: 5, RunCount: 1},
			{Name: "T2", ReadSize: 8192, ReadRate: 5, RunCount: 1},
			{Name: "IX", ReadSize: 131072, ReadRate: 400, RunCount: 64},
			{Name: "COLD", ReadSize: 8192, ReadRate: 2, RunCount: 1},
		}})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if code := send(t, client, "POST", base+"/workloads", wl); code != http.StatusOK {
						t.Errorf("workloads: %d", code)
						return
					}
				}
			}()
		}
		defer func() { close(stop); wg.Wait() }()
		for i := 0; i < 30; i++ {
			want := [][][]float64{spread, allOnD0}[i%2]
			code, resp := do(t, client, "POST", base+"/migrate", map[string]interface{}{"target": want})
			if code != http.StatusOK || resp["started"] != true {
				t.Fatalf("migration %d: %d %v", i, code, resp)
			}
			if st := waitMigrationIdle(t, client, base); st["done"] != true {
				t.Fatalf("migration %d did not complete: %v", i, st)
			}
			if rows, _ := currentRows(t, client, base); !rowsEqual(rows, want) {
				t.Fatalf("migration %d: layout %v after completion, want %v", i, rows, want)
			}
		}
	})

	t.Run("document replacement needing calibration while migrate starts", func(t *testing.T) {
		s, h := newTestServer(t, Options{DataDir: t.TempDir(), FastCalibration: true,
			SimBytesPerSec: 64 << 20, SimStep: 0.01, PumpInterval: time.Millisecond})
		client := h.Client()
		replacement, err := json.Marshal(map[string]interface{}{
			"objects": []map[string]interface{}{
				{"name": "A", "size_mb": 8, "kind": "table"},
				{"name": "B", "size_mb": 8, "kind": "table"},
			},
			"targets": []map[string]interface{}{
				{"name": "x0", "capacity_mb": 64, "model": "disk15k"},
				{"name": "x1", "capacity_mb": 64, "model": "disk15k"},
			},
			"workloads": map[string]interface{}{"workloads": []*dblayout.Workload{
				{Name: "A", ReadSize: 8192, ReadRate: 50, RunCount: 1},
				{Name: "B", ReadSize: 8192, ReadRate: 50, RunCount: 1},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			base := fmt.Sprintf("%s/v1/tenants/t%d", h.URL, i)
			if code, resp := do(t, client, "PUT", base, testDoc(t, allOnD0)); code != http.StatusOK {
				t.Fatalf("PUT: %d %v", code, resp)
			}
			put := make(chan int, 1)
			go func() { put <- send(t, client, "PUT", base, replacement) }()
			time.Sleep(5 * time.Millisecond) // the PUT is calibrating
			code, resp := do(t, client, "POST", base+"/migrate", map[string]interface{}{
				"target": spread, "bytes_per_sec": 4 << 20,
			})
			if code != http.StatusOK && code != http.StatusConflict {
				t.Fatalf("migrate: %d %v", code, resp)
			}
			<-put
			s.wg.Wait() // every migration pump has run out

			rows, objects := currentRows(t, client, base)
			if len(rows) != objects {
				t.Fatalf("tenant t%d: %d-row layout on a %d-object document", i, len(rows), objects)
			}
			data, err := os.ReadFile(s.journalPath(fmt.Sprintf("t%d", i)))
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			ck, err := control.Recover(data)
			if err != nil {
				t.Fatalf("journal: %v", err)
			}
			if !rowsEqual(layoutRows(ck.Current), rows) {
				t.Fatalf("tenant t%d: journal layout %v, tenant layout %v", i, layoutRows(ck.Current), rows)
			}
		}
	})
}

// TestMigrateRefusesSupersededPlan: /migrate plans from the snapshot it read
// at request start; when the layout changes before the migration starts (here
// another migration finishes while the request waits on its advise), the plan
// no longer starts from the data's layout and the request is refused.
func TestMigrateRefusesSupersededPlan(t *testing.T) {
	s, h := newTestServer(t, Options{DataDir: t.TempDir()})
	base := h.URL + "/v1/tenants/acme"
	if code, resp := do(t, h.Client(), "PUT", base, testDoc(t, allOnD0)); code != http.StatusOK {
		t.Fatalf("PUT: %d %v", code, resp)
	}
	s.mu.Lock()
	ten := s.tenants["acme"]
	s.mu.Unlock()
	moved, err := layout.FromRows(spread, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Park the request on an advise entry that is not ready yet.
	e := &adviseEntry{ready: make(chan struct{})}
	ten.adviseMu.Lock()
	ten.advise[adviseKey{version: ten.snapshot().version, budget: s.opt.SolveBudget}] = e
	ten.adviseMu.Unlock()
	result := make(chan int, 1)
	go func() { result <- send(t, h.Client(), "POST", base+"/migrate", nil) }()
	for s.mAdviseHits.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	ten.install(ten.snapshot().withLayout(moved)) // another migration finished
	e.rec = &dblayout.Recommendation{Final: moved}
	close(e.ready)
	if code := <-result; code != http.StatusConflict {
		t.Fatalf("migrate planned from a superseded layout: %d, want 409", code)
	}
}

// TestDaemonRecoversAbortedEpoch covers the daemon's abort policy through the
// journal owner. A journal whose engine aborted before the crash swallowed
// the outcome is closed on restore with an aborted coutcome and the daemon's
// terminal cfail; a journal ending between the two gets the cfail; either
// way the tenant keeps the committed steps and can migrate again.
func TestDaemonRecoversAbortedEpoch(t *testing.T) {
	opt := func(dir string) Options {
		return Options{DataDir: dir, SimBytesPerSec: 64 << 20, SimStep: 0.05, PumpInterval: time.Millisecond}
	}
	dir := t.TempDir()
	s, h := newTestServer(t, opt(dir))
	base := h.URL + "/v1/tenants/acme"
	if code, resp := do(t, h.Client(), "PUT", base, testDoc(t, allOnD0)); code != http.StatusOK {
		t.Fatalf("PUT: %d %v", code, resp)
	}
	if code, resp := do(t, h.Client(), "POST", base+"/migrate", map[string]interface{}{"target": spread}); code != http.StatusOK {
		t.Fatalf("migrate: %d %v", code, resp)
	}
	waitMigrationIdle(t, h.Client(), base)
	h.Close()
	s.Close()
	doc, err := os.ReadFile(filepath.Join(dir, "acme.problem.json"))
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(dir, "acme.journal"))
	if err != nil {
		t.Fatal(err)
	}
	// Keep the journal up to the first committed step, then abort on d1.
	cut := bytes.Index(journal, []byte(`"state":"committed"`))
	cut += bytes.IndexByte(journal[cut:], '\n') + 1
	aborted := append([]byte(nil), journal[:cut]...)
	var abort bytes.Buffer
	if err := wal.Append(&abort, []byte(`{"t":"abort","failed":[1],"reason":"injected fault"}`)); err != nil {
		t.Fatal(err)
	}
	aborted = append(aborted, abort.Bytes()...)
	partial := [][]float64{{0, 1, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}}

	restore := func(t *testing.T, data []byte) (string, *http.Client, string) {
		t.Helper()
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, "acme.problem.json"), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "acme.journal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, h2 := newTestServer(t, opt(d))
		return filepath.Join(d, "acme.journal"), h2.Client(), h2.URL + "/v1/tenants/acme"
	}
	recovered := func(t *testing.T, path string) (*control.Checkpoint, []byte) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := control.Recover(data)
		if err != nil {
			t.Fatalf("journal does not recover: %v", err)
		}
		if ck.Open != nil || ck.NeedRetryDecision || !ck.Cooling || len(ck.Failed) != 1 || ck.Failed[0] != 1 {
			t.Fatalf("journal not closed by a terminal abort: %+v", ck)
		}
		return ck, data
	}

	path, client, base2 := restore(t, aborted)
	if rows, _ := currentRows(t, client, base2); !rowsEqual(rows, partial) {
		t.Fatalf("layout after a recovered abort: %v, want %v", rows, partial)
	}
	_, closed := recovered(t, path)

	// Drop the cfail: the restore must re-make the terminal decision.
	undecided := closed[:bytes.LastIndexByte(closed[:len(closed)-1], '\n')+1]
	path, client, base2 = restore(t, undecided)
	recovered(t, path)

	// The tenant migrates on from the partial layout; the next epoch is
	// planned with the failed target as a source to reconstruct from.
	if code, resp := do(t, client, "POST", base2+"/migrate", map[string]interface{}{"target": spread}); code != http.StatusOK {
		t.Fatalf("migrate after the abort: %d %v", code, resp)
	}
	waitMigrationIdle(t, client, base2)
	if rows, _ := currentRows(t, client, base2); !rowsEqual(rows, spread) {
		t.Fatalf("layout after the follow-up migration: %v", rows)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := control.Recover(data)
	if err != nil || ck.Epoch != 2 || ck.Open != nil || !rowsEqual(layoutRows(ck.Current), spread) {
		t.Fatalf("journal after the follow-up migration: %+v, %v", ck, err)
	}
}
