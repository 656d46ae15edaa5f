package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dblayout"
	"dblayout/internal/control"
	"dblayout/internal/layout"
	"dblayout/internal/migrate"
	"dblayout/internal/wal"
)

// Migrations run against a deterministic simulated I/O substrate
// (control.SimIO) and journal to a per-tenant write-ahead file in the
// controller journal format, through control.Journal — the epoch owner the
// autonomic controller uses too. A cbegin record fixes the base layout, each
// migration opens an epoch with a cplan carrying the request's copy options,
// the engine's own records interleave while the epoch is open, and a
// coutcome closes it. A daemon restart reopens the file and hands an open
// epoch to the owner's resume rule — the engine's journal-before-transition
// protocol makes the resume exactly-once (no step commits twice, no
// committed byte is lost or double-counted).
//
// A pump goroutine per running migration advances the simulation in small
// slices on a real-time tick, so migrations are genuinely in flight from
// the API's point of view: status polls observe intermediate progress, and
// killing the daemon mid-flight leaves a journal that ends at an arbitrary
// record boundary, exactly like a crash.

// migration is one tenant's in-flight (or just-finished) migration.
type migration struct {
	journal  *control.Journal
	engine   *migrate.Engine
	sim      *control.SimIO
	file     *os.File
	stop     chan struct{} // closed to abandon the pump (crash semantics)
	finished bool
	err      string
	// recovered marks a migration resumed from the journal at startup.
	recovered bool
}

// migrateRequest tunes one migration run.
type migrateRequest struct {
	// Target is the destination layout (fraction rows). Absent, the
	// daemon advises first (through the cache) and migrates to the
	// recommendation.
	Target [][]float64 `json:"target"`
	Seed   int64       `json:"seed"`
	// The copy options: bytes_per_sec throttles the copy stream (simulated
	// bytes/second, 0 = unthrottled), chunk_bytes is the copy granularity,
	// checkpoint_bytes the progress-journaling granularity, and sync_every
	// batches progress-record fsyncs (default 8). The epoch's cplan
	// journals them, so a resumed migration copies the same way.
	control.CopyOptions
}

func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if s.opt.DataDir == "" {
		writeError(w, http.StatusServiceUnavailable, "migrations need a data directory (-data)")
		return
	}
	t, st := s.snapshotFor(w, r)
	if t == nil {
		return
	}
	var req migrateRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 4<<20)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "parsing request: %v", err)
			return
		}
	}
	if req.SyncEvery == 0 {
		req.SyncEvery = 8
	}

	var target *layout.Layout
	if req.Target != nil {
		l, err := layout.FromRows(req.Target, len(st.names), len(st.caps))
		if err != nil {
			writeError(w, http.StatusBadRequest, "target layout: %v", err)
			return
		}
		if err := l.CheckCapacity(st.sizes, st.caps); err != nil {
			writeError(w, http.StatusUnprocessableEntity, "target layout: %v", err)
			return
		}
		target = l
	} else {
		key := adviseKey{version: st.version, seed: req.Seed, budget: s.opt.SolveBudget}
		rec, _, err := s.advise(r.Context(), t, st, key)
		if err != nil {
			code := http.StatusInternalServerError
			if errors.Is(err, ErrOverloaded) {
				code = http.StatusServiceUnavailable
			}
			writeError(w, code, "advising for migration: %v", err)
			return
		}
		target = rec.Final
	}

	plan, err := dblayout.MigrationPlan(st.problem, st.current, target)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "planning: %v", err)
		return
	}
	if len(plan) == 0 {
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"tenant": t.id, "version": st.version, "moves": 0, "started": false,
		})
		return
	}
	scratch := migrate.AutoScratch(st.current, target, st.sizes, st.caps)
	steps, err := migrate.BuildScript(st.current, plan, st.sizes, st.caps, scratch)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "building script: %v", err)
		return
	}

	t.migMu.Lock()
	defer t.migMu.Unlock()
	if t.mig != nil && !t.mig.finished {
		writeError(w, http.StatusConflict, "tenant %q already has a migration in flight", t.id)
		return
	}
	if t.snapshot().current != st.current {
		// A migration finished or a new document landed since the plan
		// was made from st: the plan no longer starts from the layout.
		writeError(w, http.StatusConflict, "tenant %q changed while planning the migration; retry", t.id)
		return
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	mig, err := s.startMigration(t, st, steps, scratch, req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "starting migration: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"tenant": t.id, "version": st.version, "started": true,
		"epoch": mig.journal.Epoch(), "moves": len(steps),
		"bytes": migrate.ScriptBytes(steps),
	})
}

// startMigration opens the next epoch in the tenant journal (starting the
// journal with its cbegin when there is none), builds the engine and launches
// the pump. Caller holds t.migMu.
func (s *Server) startMigration(t *tenant, st *tenantState, steps []migrate.Step, scratch migrate.ScratchSpec, req migrateRequest) (*migration, error) {
	data, f, err := wal.OpenAppend(s.journalPath(t.id))
	if err != nil {
		return nil, err
	}
	var j *control.Journal
	if len(data) == 0 {
		// cbegin pins the journal's base layout: the current layout at
		// journal creation. Every later epoch migrates from base plus the
		// committed steps of the closed epochs before it.
		j, err = control.Begin(f, st.current, req.Seed)
	} else {
		j, _, err = control.Reopen(f, data)
	}
	if err == nil {
		err = j.Plan(control.Record{Attempt: 1, Steps: steps, Scratch: &scratch, Reason: "api", Copy: &req.CopyOptions})
	}
	var eng *migrate.Engine
	mig := &migration{journal: j, sim: control.NewSimIO(s.simDevices(st), 0), file: f, stop: make(chan struct{})}
	if err == nil {
		eng, err = j.Engine(mig.sim, st.current, nil, engineOptions(), func(res *migrate.Result) { s.finish(t, mig, res) })
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	s.run(t, mig, eng)
	return mig, nil
}

// engineOptions are the daemon's engine options beneath each epoch's
// journaled copy options: no foreground I/O to yield to, and the default
// fsync batching for a cplan that carries no copy options.
func engineOptions() migrate.Options {
	return migrate.Options{MaxQueueShare: 1, SyncEvery: 8}
}

// run starts a migration's engine and its pump. Caller holds t.migMu.
func (s *Server) run(t *tenant, mig *migration, eng *migrate.Engine) {
	mig.engine = eng
	t.mig = mig
	eng.Start()
	s.wg.Add(1)
	go s.pump(t, mig)
}

// simDevices builds the simulated device table for a tenant's targets.
func (s *Server) simDevices(st *tenantState) []control.SimDevice {
	devs := make([]control.SimDevice, len(st.caps))
	for j := range devs {
		devs[j] = control.SimDevice{
			Name:        st.problem.Targets[j].Name,
			Capacity:    st.caps[j],
			BytesPerSec: s.opt.SimBytesPerSec,
			FailAt:      -1,
		}
	}
	return devs
}

// pump advances one migration's simulated clock on a real-time tick until
// the engine finishes or the server shuts down. Abandoning mid-flight is
// deliberate crash semantics: the journal ends at a record boundary and the
// next daemon start resumes from it.
func (s *Server) pump(t *tenant, mig *migration) {
	defer s.wg.Done()
	for {
		select {
		case <-mig.stop:
			mig.file.Close()
			return
		case <-s.ctx.Done():
			mig.file.Close()
			return
		default:
		}
		t.migMu.Lock()
		if !mig.finished {
			mig.sim.Advance(s.opt.SimStep) // may run finish
		}
		done := mig.finished
		t.migMu.Unlock()
		if done {
			return
		}
		time.Sleep(s.opt.PumpInterval)
	}
}

// finish is the engine's completion callback. It runs under t.migMu, from
// the pump or from the journal owner's resume at start-up. It closes the
// epoch (an abort is made terminal with cfail: the daemon never auto-retries,
// clients replan via /repair) and installs the closed epoch's layout on the
// tenant's latest state, so the journal and the state change in one migMu
// section.
func (s *Server) finish(t *tenant, mig *migration, res *migrate.Result) {
	defer mig.file.Close()
	mig.finished = true
	if res.Crashed {
		mig.err = fmt.Sprintf("journal write failed: %v", res.Err)
		return
	}
	err := mig.journal.Outcome(res, 0)
	if err == nil && res.Aborted {
		err = mig.journal.Fail(1, fmt.Errorf("%v; replan via /repair", res.Err))
	}
	if err != nil {
		mig.err = fmt.Sprintf("closing epoch: %v", err)
		return
	}
	if res.Err != nil {
		mig.err = res.Err.Error()
	}
	t.update(func(st *tenantState) (*tenantState, error) { return st.withLayout(res.Layout), nil })
	if s.log != nil {
		s.log.Info("migration finished", "tenant", t.id, "epoch", mig.journal.Epoch(),
			"done", res.Done, "aborted", res.Aborted, "committed_bytes", res.CommittedBytes)
	}
}

func (s *Server) handleMigration(w http.ResponseWriter, r *http.Request) {
	t, st := s.snapshotFor(w, r)
	if t == nil {
		return
	}
	t.migMu.Lock()
	defer t.migMu.Unlock()
	if t.mig == nil {
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"tenant": t.id, "version": st.version, "active": false,
		})
		return
	}
	mig := t.mig
	res := mig.engine.Result()
	resp := map[string]interface{}{
		"tenant": t.id, "version": st.version,
		"active":          !mig.finished,
		"epoch":           mig.journal.Epoch(),
		"recovered":       mig.recovered,
		"steps":           len(res.Steps),
		"committed_steps": res.Committed,
		"committed_bytes": res.CommittedBytes,
		"total_bytes":     migrate.ScriptBytes(res.Steps),
		"done":            res.Done,
		"aborted":         res.Aborted,
	}
	if mig.err != "" {
		resp["error"] = mig.err
	}
	writeJSON(w, http.StatusOK, resp)
}

// restore rebuilds every persisted tenant and resumes in-flight migrations
// from their journals. Called from New before the server accepts requests.
func (s *Server) restore() error {
	entries, err := os.ReadDir(s.opt.DataDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".problem.json") {
			continue
		}
		id := strings.TrimSuffix(name, ".problem.json")
		if !tenantID.MatchString(id) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(s.opt.DataDir, name))
		if err != nil {
			return fmt.Errorf("tenant %s: %w", id, err)
		}
		t := newTenant(id)
		st, err := t.buildState(s, raw)
		if err != nil {
			if s.log != nil {
				s.log.Warn("skipping unloadable tenant", "tenant", id, "err", err)
			}
			continue
		}
		st = t.install(st)
		s.tenants[id] = t
		if err := s.recoverJournal(t, st); err != nil {
			return fmt.Errorf("tenant %s: %w", id, err)
		}
	}
	s.mTenants.Set(float64(len(s.tenants)))
	return nil
}

// recoverJournal reopens a tenant's migration journal through the journal
// owner: closed epochs roll the current layout forward, a journal ending at
// an aborted outcome gets its terminal cfail, and an open epoch goes to the
// owner's resume rule.
func (s *Server) recoverJournal(t *tenant, st *tenantState) error {
	path := s.journalPath(t.id)
	data, f, err := wal.OpenAppend(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		// No journal, or one whose cbegin never became durable.
		f.Close()
		return os.Remove(path)
	}
	j, ck, err := control.Reopen(f, data)
	if err == nil && (ck.N != len(st.names) || ck.M != len(st.caps)) {
		err = fmt.Errorf("journal is for a %dx%d problem, the document is %dx%d", ck.N, ck.M, len(st.names), len(st.caps))
	}
	if err != nil {
		// A journal the daemon cannot trust is quarantined, not appended
		// to: the tenant restarts from its problem document's layout.
		f.Close()
		if s.log != nil {
			s.log.Warn("quarantining corrupt journal", "tenant", t.id, "err", err)
		}
		return os.Rename(path, path+".corrupt")
	}
	t.migMu.Lock()
	defer t.migMu.Unlock()
	t.update(func(st *tenantState) (*tenantState, error) { return st.withLayout(ck.Current), nil })
	if ck.NeedRetryDecision {
		// The crash landed between an aborted outcome and its retry
		// decision: the daemon's decision is always the terminal one.
		err = j.Fail(1, errors.New("abort recovered at restart; replan via /repair"))
	}
	if ck.Open == nil || err != nil {
		f.Close()
		return err
	}
	mig := &migration{journal: j, sim: control.NewSimIO(s.simDevices(st), 0), file: f,
		stop: make(chan struct{}), recovered: true}
	eng, err := j.Resume(ck, mig.sim, engineOptions(), func(res *migrate.Result) { s.finish(t, mig, res) })
	if err != nil {
		f.Close()
		return err
	}
	if eng == nil {
		return nil // the owner reported an outcome the crash swallowed; finish closed the epoch
	}
	s.mRecovered.Inc()
	if s.log != nil {
		s.log.Info("resuming migration", "tenant", t.id, "epoch", j.Epoch(),
			"committed_steps", eng.Result().Committed)
	}
	s.run(t, mig, eng)
	return nil
}
