package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"dblayout"
	"dblayout/internal/control"
	"dblayout/internal/costmodel"
	"dblayout/internal/layout"
	"dblayout/internal/migrate"
	"dblayout/internal/storage"
)

// repair-migrate: failure → repair → journaled copy → recovery, with one
// client. Each op fails one target of the set-up layout, re-solves with
// RecommendRepair, builds the step script, runs the migration engine over
// control.SimIO while journaling to a real file with fsync (SyncEvery 8, as
// the daemon uses), then decodes and recovers the journal. Every
// repairCrashEvery-th op also truncates the journal at a seeded record,
// resumes from it, and checks that every byte was committed exactly once.
// The failed target is restored after each op (the next op starts from the
// set-up layout again), so ops stay alike. The copy and the journal, not the
// repair solve, take most of each op.
//
// The ops belong to the data set: each op's failed target, solver seed and
// crash point are drawn from datasetSeed, and --seed orders them.
//
// Objects are large (8-24 GiB) and progress is checkpointed every
// repairCheckpoint bytes rather than the engine's default 16 MiB, so that an
// op spends most of its time in the copy loop and makes a few dozen journal
// records and fsyncs rather than hundreds. A real fsync blocks the vCPU, and
// its cost follows the host's I/O and scheduling load: it rose from 0.1 ms
// to 0.8 ms per call between calm and busy stretches of the same hour, so
// with hundreds per op that drift swamped everything else the op does.
const (
	repairObjects    = 12
	repairTargets    = 6
	repairCrashEvery = 4
	repairSyncEvery  = 8
	repairCheckpoint = 1 << 30
	repairDevRate    = 256 << 20 // simulated bytes per second per device
	repairWarmup     = 2         // untimed ops at the end of set-up
)

type repairMigrate struct {
	cfg     config
	tr      *tracer
	p       dblayout.Problem
	sizes   []int64
	caps    []int64
	total   int64
	base    *dblayout.Layout
	journal string // path of the journal file

	opFail  []int   // target each op fails, warm-up ops first
	opSeed  []int64 // repair solver seed of each op
	opCrash []int64 // seed of the truncation point; 0 = no crash-resume
	done    []repairOutcome
}

type repairOutcome struct {
	layout *dblayout.Layout
	obj    float64
}

func buildRepair(cfg config, tr *tracer) (workload, error) {
	w := &repairMigrate{cfg: cfg, tr: tr}
	model := calibrateFast(tr)

	data := rand.New(rand.NewSource(datasetSeed))
	names := make([]string, repairObjects)
	for i := range names {
		names[i] = fmt.Sprintf("obj%d", i)
		size := int64(8192+data.Intn(16384)) << 20
		w.p.Objects = append(w.p.Objects, dblayout.Object{Name: names[i], Size: size, Kind: dblayout.KindTable})
		w.sizes = append(w.sizes, size)
		w.total += size
	}
	capacity := w.total * 2 / repairTargets
	for j := 0; j < repairTargets; j++ {
		w.p.Targets = append(w.p.Targets, &dblayout.Target{
			Name: fmt.Sprintf("disk%d", j), Capacity: capacity, Model: tr.model(model)})
		w.caps = append(w.caps, capacity)
	}
	raw, err := svcTrace(data, repairObjects)
	if err != nil {
		return nil, err
	}
	trace, err := dblayout.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	if w.p.Workloads, err = dblayout.FitWorkloads(trace, names, dblayout.FitOptions{ActiveRates: true}); err != nil {
		return nil, err
	}
	rec, err := dblayout.Recommend(w.p, dblayout.Options{Seed: datasetSeed})
	if err != nil {
		return nil, err
	}
	w.base = rec.Final

	f, err := os.CreateTemp(cfg.out, "repair-*.wal")
	if err != nil {
		return nil, err
	}
	w.journal = f.Name()
	f.Close()

	total := repairWarmup + cfg.ops
	for i := 0; i < total; i++ {
		w.opFail = append(w.opFail, data.Intn(repairTargets))
		w.opSeed = append(w.opSeed, data.Int63())
		crash := int64(0)
		if i >= repairWarmup && (i-repairWarmup)%repairCrashEvery == repairCrashEvery-1 {
			crash = 1 + data.Int63n(1<<62)
		}
		w.opCrash = append(w.opCrash, crash)
	}
	rand.New(rand.NewSource(cfg.seed)).Shuffle(cfg.ops, func(a, b int) {
		a, b = repairWarmup+a, repairWarmup+b
		w.opFail[a], w.opFail[b] = w.opFail[b], w.opFail[a]
		w.opSeed[a], w.opSeed[b] = w.opSeed[b], w.opSeed[a]
		w.opCrash[a], w.opCrash[b] = w.opCrash[b], w.opCrash[a]
	})
	for i := 0; i < repairWarmup; i++ {
		if _, err := w.op(i, opWarmup); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	w.done = nil
	return w, nil
}

func (w *repairMigrate) run() ([]opRecord, error) {
	recs := make([]opRecord, 0, w.cfg.ops)
	for k := 0; k < w.cfg.ops; k++ {
		r, err := w.op(repairWarmup+k, k)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", k, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

func (w *repairMigrate) op(i, id int) (opRecord, error) {
	tr := w.tr
	start := time.Now()
	root := tr.begin(id, 0, "bench.op")
	lookups := tr.lookupCount()
	failed := []int{w.opFail[i]}

	s := tr.begin(id, root, "core.repair")
	repairStart := time.Now()
	rep, err := dblayout.RecommendRepair(context.Background(), w.p, w.base, failed,
		dblayout.Options{Seed: w.opSeed[i], Trace: tr.nlpHook(id)})
	tr.end(s)
	if err != nil {
		return opRecord{}, err
	}
	if tr != nil && rep.SolveTime > 0 {
		tr.add(id, s, "nlp.solve", repairStart, repairStart.Add(rep.SolveTime))
	}

	s = tr.begin(id, root, "migrate.script")
	scratch := migrate.AutoScratch(w.base, rep.Layout, w.sizes, w.caps)
	steps, err := migrate.BuildScript(w.base, rep.Plan, w.sizes, w.caps, scratch)
	tr.end(s)
	if err != nil {
		return opRecord{}, err
	}
	tr.count(id, "migrate.steps", int64(len(steps)))
	opt := migrate.Options{Scratch: scratch, SyncEvery: repairSyncEvery, CheckpointBytes: repairCheckpoint,
		MaxQueueShare: 1, FailedSources: failed}

	res, err := w.runEngine(id, root, steps, opt, nil, os.O_TRUNC)
	if err != nil {
		return opRecord{}, err
	}
	tr.count(id, "migrate.journal_records", int64(res.JournalRecords))
	want := migrate.ScriptBytes(steps)
	if err := w.checkJournal(id, root, steps, res, want); err != nil {
		return opRecord{}, err
	}

	if seed := w.opCrash[i]; seed != 0 {
		// Crash-resume: cut the journal after a seeded record, resume
		// from what survives, and recover the resumed journal.
		data, err := os.ReadFile(w.journal)
		if err != nil {
			return opRecord{}, err
		}
		cut := cutAfterRecord(data, 1+int(seed%int64(max(res.JournalRecords-1, 1))))
		if err := os.WriteFile(w.journal, data[:cut], 0o644); err != nil {
			return opRecord{}, err
		}
		s = tr.begin(id, root, "migrate.recover")
		records, err := migrate.DecodeJournal(data[:cut])
		var ck *migrate.Checkpoint
		if err == nil {
			ck, err = migrate.Recover(records)
		}
		tr.end(s)
		if err != nil {
			return opRecord{}, checkf("truncated journal: %v", err)
		}
		resumed, err := w.runEngine(id, root, steps, opt, ck, os.O_APPEND)
		if err != nil {
			return opRecord{}, err
		}
		if !sameLayout(resumed.Layout, res.Layout) {
			return opRecord{}, checkf("resumed migration ended in a different layout")
		}
		if err := w.checkJournal(id, root, steps, resumed, want); err != nil {
			return opRecord{}, fmt.Errorf("after crash-resume: %w", err)
		}
		tr.count(id, "migrate.recopied_bytes", resumed.DeviceBytes)
		tr.count(id, "migrate.crash_script_bytes", res.DeviceBytes)
	}
	tr.count(id, "costmodel.lookups", tr.lookupCount()-lookups)
	tr.end(root)
	w.done = append(w.done, repairOutcome{layout: rep.Layout, obj: rep.Objective})
	return opRecord{
		id: id, lat: time.Since(start), degraded: rep.Degraded,
		obj: rep.Objective, moved: rep.PlanBytes, bytes: w.total,
		work: res.JournalRecords,
	}, nil
}

// calibrateFast calibrates the 15K disk's cost model on the fast grid, the
// model of the small service-mix and repair-migrate problems.
func calibrateFast(tr *tracer) *costmodel.Model {
	id := tr.begin(opSetup, 0, "costmodel.calibrate")
	defer tr.end(id)
	return costmodel.Calibrate("disk15k", func(e *storage.Engine) storage.Device {
		return storage.NewDisk(e, "disk", storage.Disk15KConfig())
	}, costmodel.FastGrid())
}

// runEngine runs the migration engine over a fresh simulated device set,
// journaling to the journal file (truncated or appended to, by flag), until
// it finishes.
func (w *repairMigrate) runEngine(id, root int, steps []migrate.Step, opt migrate.Options, ck *migrate.Checkpoint, flag int) (*migrate.Result, error) {
	f, err := os.OpenFile(w.journal, os.O_WRONLY|os.O_CREATE|flag, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	devs := make([]control.SimDevice, repairTargets)
	for j := range devs {
		devs[j] = control.SimDevice{Name: w.p.Targets[j].Name, Capacity: w.caps[j],
			BytesPerSec: repairDevRate, FailAt: -1}
	}
	for _, j := range opt.FailedSources {
		devs[j].FailAt = 0
	}
	sim := control.NewSimIO(devs, 0)
	s := w.tr.begin(id, root, "migrate.copy")
	opt.Journal = w.tr.journal(f, id, s)
	opt.Checkpoint = ck
	var res *migrate.Result
	eng, err := migrate.NewEngine(sim, w.base, steps, opt, func(r *migrate.Result) { res = r })
	if err != nil {
		return nil, err
	}
	eng.Start()
	for step := 0; res == nil; step++ {
		if step > 1e6 {
			return nil, fmt.Errorf("migration did not finish")
		}
		sim.Advance(1)
	}
	w.tr.end(s)
	if !res.Done {
		return nil, fmt.Errorf("migration ended without finishing: %v", res.Err)
	}
	return res, nil
}

// checkJournal decodes and recovers the journal and checks it against the
// engine's result: done, every script byte committed exactly once, and the
// journal's layout equal to the engine's.
func (w *repairMigrate) checkJournal(id, root int, steps []migrate.Step, res *migrate.Result, want int64) error {
	s := w.tr.begin(id, root, "migrate.recover")
	data, err := os.ReadFile(w.journal)
	var ck *migrate.Checkpoint
	if err == nil {
		var records []migrate.Record
		if records, err = migrate.DecodeJournal(data); err == nil {
			ck, err = migrate.Recover(records)
		}
	}
	w.tr.end(s)
	if err != nil {
		return checkf("journal recovery: %v", err)
	}
	l := w.base.Clone()
	ck.ApplyCommitted(l)
	switch {
	case !ck.Done:
		return checkf("recovered journal is not done")
	case ck.CommittedBytes() != want || res.CommittedBytes != want:
		return checkf("committed %d bytes (journal) and %d (engine), script has %d",
			ck.CommittedBytes(), res.CommittedBytes, want)
	case !sameLayout(l, res.Layout):
		return checkf("recovered layout differs from the engine's")
	}
	return nil
}

// cutAfterRecord returns the length of the first n journal lines.
func cutAfterRecord(data []byte, n int) int {
	for i, b := range data {
		if b == '\n' {
			if n--; n == 0 {
				return i + 1
			}
		}
	}
	return len(data)
}

func sameLayout(a, b *layout.Layout) bool {
	if a.N != b.N || a.M != b.M {
		return false
	}
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.M; j++ {
			if a.At(i, j) != b.At(i, j) {
				return false
			}
		}
	}
	return true
}

// reset has nothing to restore: every op starts from the set-up layout
// and truncates the journal.
func (w *repairMigrate) reset() error { return nil }

func (w *repairMigrate) verify() error {
	done := w.done
	w.done = nil
	for k, o := range done {
		if err := checkObjective(w.p, o.layout, o.obj); err != nil {
			return fmt.Errorf("op %d: %w", k, err)
		}
	}
	return nil
}

func (w *repairMigrate) close() {
	if w.journal != "" {
		os.Remove(w.journal)
	}
}
