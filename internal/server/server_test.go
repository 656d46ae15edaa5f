package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"dblayout"
	"dblayout/internal/control"
	"dblayout/internal/layouttest"
	"dblayout/internal/migrate"
	"dblayout/internal/obs"
	"dblayout/internal/storage"
	"dblayout/internal/wal"
)

// testDoc builds a small four-object problem document with inline cost
// models (no calibration) so server tests solve in milliseconds.
func testDoc(t testing.TB, current [][]float64) []byte {
	t.Helper()
	disk, err := json.Marshal(layouttest.DiskModel())
	if err != nil {
		t.Fatal(err)
	}
	ssd, err := json.Marshal(layouttest.SSDModel())
	if err != nil {
		t.Fatal(err)
	}
	doc := map[string]interface{}{
		"objects": []map[string]interface{}{
			{"name": "T1", "size_mb": 8, "kind": "table"},
			{"name": "T2", "size_mb": 8, "kind": "table"},
			{"name": "IX", "size_mb": 8, "kind": "index"},
			{"name": "COLD", "size_mb": 4, "kind": "table"},
		},
		"targets": []map[string]interface{}{
			{"name": "d0", "capacity_mb": 64, "model_json": json.RawMessage(disk)},
			{"name": "d1", "capacity_mb": 64, "model_json": json.RawMessage(disk)},
			{"name": "d2", "capacity_mb": 64, "model_json": json.RawMessage(ssd)},
			{"name": "d3", "capacity_mb": 64, "model_json": json.RawMessage(disk)},
		},
		"workloads": map[string]interface{}{"workloads": []*dblayout.Workload{
			{Name: "T1", ReadSize: 131072, ReadRate: 300, RunCount: 64, Overlap: []float64{1, 0.9, 0.5, 0.1}},
			{Name: "T2", ReadSize: 131072, ReadRate: 200, RunCount: 64, Overlap: []float64{0.9, 1, 0.5, 0.1}},
			{Name: "IX", ReadSize: 8192, ReadRate: 120, WriteSize: 8192, WriteRate: 30, RunCount: 1, Overlap: []float64{0.5, 0.5, 1, 0.1}},
			{Name: "COLD", ReadSize: 8192, ReadRate: 2, RunCount: 1, Overlap: []float64{0.1, 0.1, 0.1, 1}},
		}},
	}
	if current != nil {
		doc["current"] = current
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func newTestServer(t testing.TB, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	h := httptest.NewServer(s.Handler())
	t.Cleanup(func() { h.Close(); s.Close() })
	return s, h
}

func do(t testing.TB, client *http.Client, method, url string, body interface{}) (int, map[string]interface{}) {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else if raw, ok := body.([]byte); ok {
		rd = bytes.NewReader(raw)
	} else {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp.StatusCode, out
}

// TestAdviseLifecycle pins the basic flow: upload, advise, cache hit,
// workload upload invalidates, advise recomputes at the new version.
func TestAdviseLifecycle(t *testing.T) {
	s, h := newTestServer(t, Options{})
	client := h.Client()

	code, resp := do(t, client, "PUT", h.URL+"/v1/tenants/acme", testDoc(t, nil))
	if code != http.StatusOK {
		t.Fatalf("PUT tenant: %d %v", code, resp)
	}
	if resp["version"].(float64) != 1 {
		t.Fatalf("first upload version = %v, want 1", resp["version"])
	}

	code, a1 := do(t, client, "POST", h.URL+"/v1/tenants/acme/advise", map[string]interface{}{"seed": 1})
	if code != http.StatusOK {
		t.Fatalf("advise: %d %v", code, a1)
	}
	if a1["cached"].(bool) {
		t.Error("first advise reported cached")
	}
	if obj := a1["objective"].(float64); obj <= 0 || obj > 10 {
		t.Errorf("objective = %v", obj)
	}

	code, a2 := do(t, client, "POST", h.URL+"/v1/tenants/acme/advise", map[string]interface{}{"seed": 1})
	if code != http.StatusOK || !a2["cached"].(bool) {
		t.Fatalf("repeat advise: %d cached=%v", code, a2["cached"])
	}
	if a1["objective"] != a2["objective"] {
		t.Errorf("cached advise objective %v != %v", a2["objective"], a1["objective"])
	}
	if s.mAdviseHits.Value() == 0 || s.mAdviseMisses.Value() == 0 {
		t.Errorf("cache counters hits=%d misses=%d", s.mAdviseHits.Value(), s.mAdviseMisses.Value())
	}

	// Workload upload: new version, advise cache invalidated.
	wl := map[string]interface{}{"workloads": []*dblayout.Workload{
		{Name: "T1", ReadSize: 8192, ReadRate: 5, RunCount: 1},
		{Name: "T2", ReadSize: 8192, ReadRate: 5, RunCount: 1},
		{Name: "IX", ReadSize: 131072, ReadRate: 400, RunCount: 64},
		{Name: "COLD", ReadSize: 8192, ReadRate: 2, RunCount: 1},
	}}
	code, wresp := do(t, client, "POST", h.URL+"/v1/tenants/acme/workloads", wl)
	if code != http.StatusOK {
		t.Fatalf("workloads: %d %v", code, wresp)
	}
	if wresp["version"].(float64) != 2 {
		t.Fatalf("post-upload version = %v, want 2", wresp["version"])
	}
	code, a3 := do(t, client, "POST", h.URL+"/v1/tenants/acme/advise", map[string]interface{}{"seed": 1})
	if code != http.StatusOK {
		t.Fatalf("advise after upload: %d %v", code, a3)
	}
	if a3["cached"].(bool) {
		t.Error("advise after workload upload served the stale cache entry")
	}
	if a3["version"].(float64) != 2 {
		t.Errorf("advise version = %v, want 2", a3["version"])
	}
}

// TestConcurrentAdviseAcrossTenants is the satellite-4 race test: at least
// 64 concurrent advise requests across at least 8 tenants, interleaved with
// workload uploads, exercising snapshot isolation, the per-tenant caches
// and their invalidation, under -race in CI.
func TestConcurrentAdviseAcrossTenants(t *testing.T) {
	s, h := newTestServer(t, Options{Workers: 4, QueueDepth: 256})
	client := h.Client()

	const tenants = 8
	const requests = 96 // > 64 concurrent advises
	for i := 0; i < tenants; i++ {
		code, resp := do(t, client, "PUT", fmt.Sprintf("%s/v1/tenants/t%d", h.URL, i), testDoc(t, nil))
		if code != http.StatusOK {
			t.Fatalf("PUT t%d: %d %v", i, code, resp)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, requests+tenants)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := i % tenants
			code, resp := do(t, client, "POST",
				fmt.Sprintf("%s/v1/tenants/t%d/advise", h.URL, id),
				map[string]interface{}{"seed": int64(i % 3)})
			if code != http.StatusOK {
				errs <- fmt.Sprintf("advise t%d: %d %v", id, code, resp)
				return
			}
			if obj := resp["objective"].(float64); obj <= 0 {
				errs <- fmt.Sprintf("advise t%d: objective %v", id, obj)
			}
		}(i)
	}
	// Concurrent invalidations on half the tenants while advises run.
	for i := 0; i < tenants; i += 2 {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wl := map[string]interface{}{"workloads": []*dblayout.Workload{
				{Name: "T1", ReadSize: 8192, ReadRate: float64(5 + i), RunCount: 1},
				{Name: "T2", ReadSize: 8192, ReadRate: 5, RunCount: 1},
				{Name: "IX", ReadSize: 131072, ReadRate: 400, RunCount: 64},
				{Name: "COLD", ReadSize: 8192, ReadRate: 2, RunCount: 1},
			}}
			code, resp := do(t, client, "POST",
				fmt.Sprintf("%s/v1/tenants/t%d/workloads", h.URL, i), wl)
			if code != http.StatusOK {
				errs <- fmt.Sprintf("workloads t%d: %d %v", i, code, resp)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if s.mAdviseMisses.Value() == 0 {
		t.Error("no advise cache misses recorded")
	}
	if s.mAdviseHits.Value() == 0 {
		t.Error("no advise cache hits recorded across duplicate seeds")
	}
	// Every advised tenant answers from a consistent snapshot afterwards.
	for i := 0; i < tenants; i++ {
		code, resp := do(t, client, "GET", fmt.Sprintf("%s/v1/tenants/t%d", h.URL, i), nil)
		if code != http.StatusOK {
			t.Fatalf("GET t%d: %d %v", i, code, resp)
		}
	}
}

// TestAdmissionOverload pins the burst behavior: beyond the worker pool and
// wait queue, requests are rejected with 503 instead of queueing unboundedly.
func TestAdmissionOverload(t *testing.T) {
	// No queue beyond the pool: a second request is rejected immediately.
	adm := newAdmission(1, 0)
	rel1, err := adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adm.acquire(context.Background()); err != ErrOverloaded {
		t.Fatalf("acquire beyond pool+queue: %v, want ErrOverloaded", err)
	}
	rel1()
	rel2, err := adm.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	rel2()

	// With one queue slot, a second request waits (doesn't fail) and a
	// third is rejected while the queue is occupied.
	adm = newAdmission(1, 1)
	relA, err := adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		relB, err := adm.acquire(context.Background())
		if err == nil {
			relB()
		}
		done <- err
	}()
	deadline := time.After(5 * time.Second)
	for adm.inflight() != 2 { // the waiter holds its queue token
		select {
		case <-deadline:
			t.Fatal("second request never enqueued")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := adm.acquire(context.Background()); err != ErrOverloaded {
		t.Fatalf("acquire with full queue: %v, want ErrOverloaded", err)
	}
	relA()
	if err := <-done; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}
}

// TestTraceFitCache exercises the fitted-workload cache: same trace bytes
// hit, a workload upload explicitly invalidates, the next upload refits.
func TestTraceFitCache(t *testing.T) {
	s, h := newTestServer(t, Options{})
	client := h.Client()
	if code, resp := do(t, client, "PUT", h.URL+"/v1/tenants/acme", testDoc(t, nil)); code != http.StatusOK {
		t.Fatalf("PUT: %d %v", code, resp)
	}

	tr := &storage.Trace{}
	for i := 0; i < 400; i++ {
		tr.Record(storage.TraceRecord{
			Time: float64(i) * 0.01, Object: i % 4, Stream: uint64(i % 3),
			Target: "d0", Offset: int64(i%64) << 12, Size: 8192, Write: i%5 == 0,
		})
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trace := buf.Bytes()

	code, r1 := do(t, client, "POST", h.URL+"/v1/tenants/acme/trace", trace)
	if code != http.StatusOK {
		t.Fatalf("trace: %d %v", code, r1)
	}
	if r1["cached"].(bool) {
		t.Error("first trace upload reported cached")
	}
	code, r2 := do(t, client, "POST", h.URL+"/v1/tenants/acme/trace", trace)
	if code != http.StatusOK || !r2["cached"].(bool) {
		t.Fatalf("repeat trace: %d cached=%v", code, r2["cached"])
	}
	if s.mFitHits.Value() != 1 || s.mFitMisses.Value() != 1 {
		t.Errorf("fit cache hits=%d misses=%d, want 1/1", s.mFitHits.Value(), s.mFitMisses.Value())
	}

	// Explicit invalidation: a workload upload clears the fit cache, so
	// the same trace refits.
	wl := map[string]interface{}{"workloads": []*dblayout.Workload{
		{Name: "T1", ReadSize: 8192, ReadRate: 5, RunCount: 1},
		{Name: "T2", ReadSize: 8192, ReadRate: 5, RunCount: 1},
		{Name: "IX", ReadSize: 8192, ReadRate: 5, RunCount: 1},
		{Name: "COLD", ReadSize: 8192, ReadRate: 2, RunCount: 1},
	}}
	if code, resp := do(t, client, "POST", h.URL+"/v1/tenants/acme/workloads", wl); code != http.StatusOK {
		t.Fatalf("workloads: %d %v", code, resp)
	}
	code, r3 := do(t, client, "POST", h.URL+"/v1/tenants/acme/trace", trace)
	if code != http.StatusOK {
		t.Fatalf("trace after invalidation: %d %v", code, r3)
	}
	if r3["cached"].(bool) {
		t.Error("trace upload after workload upload hit a cache that should have been invalidated")
	}
}

// migrationStatus polls GET /migration.
func migrationStatus(t testing.TB, client *http.Client, url string) map[string]interface{} {
	t.Helper()
	code, resp := do(t, client, "GET", url+"/migration", nil)
	if code != http.StatusOK {
		t.Fatalf("migration status: %d %v", code, resp)
	}
	return resp
}

// TestDaemonRestartResumesMigrationExactlyOnce is the satellite-4 restart
// test: a migration started through the API is killed mid-flight by closing
// the server (pump abandoned at a record boundary, like a crash), a new
// server over the same data directory resumes it from the journal, and the
// journal afterwards shows every step committed exactly once with no bytes
// lost or double-counted.
func TestDaemonRestartResumesMigrationExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	opt := Options{
		DataDir:        dir,
		SimBytesPerSec: 64 << 20,
		SimStep:        0.01,
		PumpInterval:   time.Millisecond,
	}
	s1, h1 := newTestServer(t, opt)
	client := h1.Client()
	base := h1.URL + "/v1/tenants/acme"

	// Everything on d0; the target spreads the three big objects out.
	current := [][]float64{{1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}}
	target := [][]float64{{0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}, {1, 0, 0, 0}}
	if code, resp := do(t, client, "PUT", base, testDoc(t, current)); code != http.StatusOK {
		t.Fatalf("PUT: %d %v", code, resp)
	}
	code, resp := do(t, client, "POST", base+"/migrate", map[string]interface{}{
		"target":           target,
		"bytes_per_sec":    2 << 20, // ~12 simulated seconds of copying
		"chunk_bytes":      128 << 10,
		"checkpoint_bytes": 512 << 10,
		"sync_every":       4,
	})
	if code != http.StatusOK || resp["started"] != true {
		t.Fatalf("migrate: %d %v", code, resp)
	}
	totalBytes := int64(resp["bytes"].(float64))
	steps := int(resp["moves"].(float64))
	if steps < 3 {
		t.Fatalf("script has %d steps, want >= 3", steps)
	}

	// Wait until the migration is genuinely mid-flight: at least one step
	// committed, at least one still pending.
	deadline := time.After(30 * time.Second)
	for {
		st := migrationStatus(t, client, base)
		committed := int(st["committed_steps"].(float64))
		if st["active"].(bool) && committed >= 1 && committed < steps {
			break
		}
		if st["done"] == true {
			t.Fatal("migration finished before the kill; lower bytes_per_sec")
		}
		select {
		case <-deadline:
			t.Fatalf("migration never reached mid-flight: %v", st)
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Kill the daemon: the pump stops between records, the journal stays.
	h1.Close()
	s1.Close()
	crashStatus := readJournalCommits(t, dir+"/acme.journal")
	if crashStatus.done {
		t.Fatal("journal already records done at the kill point")
	}

	// Restart over the same data directory: the tenant is restored from
	// its document and the migration resumes from the journal.
	s2, h2 := newTestServer(t, opt)
	client2 := h2.Client()
	base2 := h2.URL + "/v1/tenants/acme"
	if s2.mRecovered.Value() != 1 {
		t.Fatalf("recovered migrations = %d, want 1", s2.mRecovered.Value())
	}
	deadline = time.After(60 * time.Second)
	for {
		st := migrationStatus(t, client2, base2)
		if st["recovered"] != true {
			t.Fatalf("status does not mark the migration recovered: %v", st)
		}
		if st["done"] == true {
			if got := int64(st["committed_bytes"].(float64)); got != totalBytes {
				t.Fatalf("committed_bytes = %d, want %d", got, totalBytes)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatalf("resumed migration never finished: %v", st)
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Exactly-once, proven from the journal itself: every step has exactly
	// one committed record across both daemon lifetimes.
	final := readJournalCommits(t, dir+"/acme.journal")
	if !final.done {
		t.Fatal("journal does not record the migration done")
	}
	if len(final.commits) != steps {
		t.Fatalf("journal commits %d steps, script has %d", len(final.commits), steps)
	}
	for step, n := range final.commits {
		if n != 1 {
			t.Errorf("step %d committed %d times, want exactly once", step, n)
		}
	}
	if final.outcomes != 1 {
		t.Errorf("journal has %d coutcome records, want 1", final.outcomes)
	}

	// The recovered current layout matches the migration target.
	code, info := do(t, client2, "GET", base2, nil)
	if code != http.StatusOK {
		t.Fatalf("GET tenant: %d %v", code, info)
	}
	rows := info["current"].([]interface{})
	for i, want := range target {
		row := rows[i].([]interface{})
		for j := range want {
			if got := row[j].(float64); got != want[j] {
				t.Fatalf("current[%d][%d] = %v, want %v", i, j, got, want[j])
			}
		}
	}
	// And a full recovery of the journal agrees.
	data, err := os.ReadFile(dir + "/acme.journal")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := control.Recover(wal.TruncateTorn(data))
	if err != nil {
		t.Fatalf("final journal does not recover: %v", err)
	}
	if ck.Open != nil {
		t.Error("final journal leaves an epoch open")
	}
	// The resumed migration keeps the requested copy options: across both
	// daemon lifetimes each step journals a progress mark at every
	// checkpoint_bytes boundary exactly once, so the resumed part continues
	// the requested spacing instead of falling back to the default.
	frames, err := wal.Frames(wal.TruncateTorn(data))
	if err != nil {
		t.Fatal(err)
	}
	var planned []migrate.Step
	marks := map[[2]int64]int{}
	for _, body := range frames {
		var tag struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal(body, &tag); err != nil || strings.HasPrefix(tag.T, "c") {
			continue
		}
		rec, err := migrate.DecodeRecordBody(body)
		if err != nil {
			t.Fatalf("migrate record: %v", err)
		}
		switch rec.T {
		case "plan":
			planned = rec.Steps
		case "progress":
			marks[[2]int64{int64(rec.Step), rec.Done}]++
		}
	}
	const spacing = 512 << 10
	wantMarks := 0
	for i, step := range planned {
		for done := int64(spacing); done < step.Move.Bytes; done += spacing {
			wantMarks++
			if n := marks[[2]int64{int64(i), done}]; n != 1 {
				t.Errorf("step %d: progress mark at %d bytes journaled %d times, want once", i, done, n)
			}
		}
	}
	if len(marks) != wantMarks {
		t.Errorf("journal has %d distinct progress marks, want %d at %d-byte spacing", len(marks), wantMarks, spacing)
	}
	_ = crashStatus
}

type journalCommits struct {
	commits  map[int]int
	done     bool
	outcomes int
}

// readJournalCommits decodes a tenant journal and counts, per step, how many
// committed-state records it holds — the exactly-once ledger.
func readJournalCommits(t testing.TB, path string) journalCommits {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := wal.Frames(wal.TruncateTorn(data))
	if err != nil {
		t.Fatalf("journal frames: %v", err)
	}
	out := journalCommits{commits: map[int]int{}}
	for _, body := range frames {
		var tag struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal(body, &tag); err != nil {
			t.Fatalf("journal frame: %v", err)
		}
		if strings.HasPrefix(tag.T, "c") {
			rec, err := control.DecodeRecordBody(body)
			if err != nil {
				t.Fatalf("control record: %v", err)
			}
			if rec.T == "coutcome" {
				out.outcomes++
				if rec.Outcome == "done" {
					out.done = true
				}
			}
			continue
		}
		rec, err := migrate.DecodeRecordBody(body)
		if err != nil {
			t.Fatalf("migrate record: %v", err)
		}
		if rec.T == "state" && rec.State == migrate.StateCommitted.String() {
			out.commits[rec.Step]++
		}
	}
	return out
}

// TestMigrateConflictAndNoData pins two guard rails: migrations need a data
// directory, and a tenant can only run one migration at a time.
func TestMigrateConflictAndNoData(t *testing.T) {
	_, h := newTestServer(t, Options{}) // no DataDir
	client := h.Client()
	if code, resp := do(t, client, "PUT", h.URL+"/v1/tenants/acme", testDoc(t, nil)); code != http.StatusOK {
		t.Fatalf("PUT: %d %v", code, resp)
	}
	code, _ := do(t, client, "POST", h.URL+"/v1/tenants/acme/migrate", map[string]interface{}{})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("migrate without -data: %d, want 503", code)
	}

	dir := t.TempDir()
	_, h2 := newTestServer(t, Options{DataDir: dir, SimStep: 0.001, PumpInterval: time.Millisecond})
	client2 := h2.Client()
	base := h2.URL + "/v1/tenants/acme"
	current := [][]float64{{1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}}
	target := [][]float64{{0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}, {1, 0, 0, 0}}
	if code, resp := do(t, client2, "PUT", base, testDoc(t, current)); code != http.StatusOK {
		t.Fatalf("PUT: %d %v", code, resp)
	}
	code, resp := do(t, client2, "POST", base+"/migrate", map[string]interface{}{
		"target": target, "bytes_per_sec": 1 << 20,
	})
	if code != http.StatusOK {
		t.Fatalf("migrate: %d %v", code, resp)
	}
	code, _ = do(t, client2, "POST", base+"/migrate", map[string]interface{}{"target": target})
	if code != http.StatusConflict {
		t.Fatalf("second migrate: %d, want 409", code)
	}
	// A problem re-upload during a migration is refused too.
	code, _ = do(t, client2, "PUT", base, testDoc(t, current))
	if code != http.StatusConflict {
		t.Fatalf("PUT during migration: %d, want 409", code)
	}
}

// TestRestartWithoutJournal pins that restore rebuilds tenants from their
// documents alone.
func TestRestartWithoutJournal(t *testing.T) {
	dir := t.TempDir()
	_, h := newTestServer(t, Options{DataDir: dir})
	client := h.Client()
	if code, resp := do(t, client, "PUT", h.URL+"/v1/tenants/acme", testDoc(t, nil)); code != http.StatusOK {
		t.Fatalf("PUT: %d %v", code, resp)
	}
	h.Close()

	_, h2 := newTestServer(t, Options{DataDir: dir})
	code, resp := do(t, h2.Client(), "GET", h2.URL+"/v1/tenants/acme", nil)
	if code != http.StatusOK {
		t.Fatalf("restored tenant GET: %d %v", code, resp)
	}
	if objs := resp["objects"].([]interface{}); len(objs) != 4 {
		t.Fatalf("restored objects = %v", objs)
	}
}

// TestRequestCounters pins server_requests_total after the per-handler
// counter tables: concurrent requests answered 200, 400 and 404 on two
// handlers leave exactly those three series, with the right counts.
func TestRequestCounters(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	requests := []struct {
		path string
		code int
	}{
		{"/healthz", http.StatusOK},
		{"/v1/tenants/-bad", http.StatusBadRequest},
		{"/v1/tenants/nobody", http.StatusNotFound},
		{"/v1/tenants/ghost", http.StatusNotFound},
	}
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range requests {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", r.path, nil))
				if rec.Code != r.code {
					t.Errorf("GET %s: %d, want %d", r.path, rec.Code, r.code)
				}
			}
		}()
	}
	wg.Wait()

	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "server_requests_total{") {
			got = append(got, line)
		}
	}
	want := []string{
		fmt.Sprintf(`server_requests_total{handler="healthz",code="200"} %d`, clients),
		fmt.Sprintf(`server_requests_total{handler="tenant_get",code="400"} %d`, clients),
		fmt.Sprintf(`server_requests_total{handler="tenant_get",code="404"} %d`, 2*clients),
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("request counters:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestPutRefusesWhatTheReaderRefuses pins that a tenant PUT refuses a
// document with the problem-document reader's own message (422), adds only
// its @file refusal, and calibrates nothing for a refused document.
func TestPutRefusesWhatTheReaderRefuses(t *testing.T) {
	s, h := newTestServer(t, Options{})
	doc := func(capMB int, model, current string) []byte {
		return []byte(fmt.Sprintf(`{
			"objects": [
				{"name": "ORDERS", "size_mb": 288}, {"name": "LINEITEM", "size_mb": 240},
				{"name": "ORDERS_PK", "size_mb": 96, "kind": "index"}
			],
			"targets": [
				{"name": "disk0", "capacity_mb": %d, "model": "disk15k"},
				{"name": "disk1", "capacity_mb": 1024, "model": %q},
				{"name": "disk2", "capacity_mb": 1024, "model": "disk15k"}
			],
			"workloads": {"workloads": [
				{"name": "ORDERS", "read_size": 131072, "read_rate": 100, "run_count": 64},
				{"name": "LINEITEM", "read_size": 131072, "read_rate": 100, "run_count": 64},
				{"name": "ORDERS_PK", "read_size": 8192, "read_rate": 150, "run_count": 1}
			]},
			"current": %s
		}`, capMB, model, current))
	}
	allOnDisk0 := "[[1, 0, 0], [1, 0, 0], [1, 0, 0]]"
	put := func(doc []byte, want string) {
		t.Helper()
		code, resp := do(t, h.Client(), "PUT", h.URL+"/v1/tenants/acme", doc)
		if code != http.StatusUnprocessableEntity || resp["error"] != want {
			t.Errorf("PUT: %d %v, want 422 %q", code, resp["error"], want)
		}
	}
	for _, d := range [][]byte{
		doc(500, "disk15k", allOnDisk0),
		doc(1024, "disk15k", "[[1, 0, 0], [1, 0, 0]]"),
		doc(1024, "floppy", allOnDisk0),
	} {
		_, err := dblayout.ReadDocument(d, func(string) (*dblayout.CostModel, error) { return nil, nil })
		if err == nil {
			t.Fatalf("reader accepts %s", d)
		}
		put(d, err.Error())
	}
	put(doc(1024, "@disk.json", allOnDisk0),
		`target "disk1": model "@disk.json": @file references are not served; upload the model inline as model_json`)
	if n := s.mCalibrations.Value(); n != 0 {
		t.Fatalf("%d calibrations for refused documents", n)
	}
}
