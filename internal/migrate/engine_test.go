package migrate

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"dblayout/internal/core"
	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
	"dblayout/internal/nlp"
	"dblayout/internal/obs"
	"dblayout/internal/replay"
	"dblayout/internal/rome"
	"dblayout/internal/storage"
	"dblayout/internal/wal"
)

const mib = int64(1 << 20)

// migrationFixture builds a 6-object, 5-disk system whose migration needs
// six moves, three of which form a capacity cycle: A, B, C fill disks d0-d2
// exactly and rotate one disk over, while D, E swap homes with F between
// the roomier d3 and d4. d3 has enough headroom to host an 8 MiB scratch
// reservation.
func migrationFixture() (*replay.System, *layout.Layout, *layout.Layout) {
	mkDisk := func(capMiB int64) *storage.DiskConfig {
		cfg := storage.Disk15KConfig()
		cfg.CapacityBytes = capMiB * mib
		return &cfg
	}
	sys := &replay.System{
		Objects: []layout.Object{
			{Name: "A", Size: 8 * mib}, {Name: "B", Size: 8 * mib}, {Name: "C", Size: 8 * mib},
			{Name: "D", Size: 4 * mib}, {Name: "E", Size: 4 * mib}, {Name: "F", Size: 4 * mib},
		},
		Devices: []replay.DeviceSpec{
			{Name: "d0", Disk: mkDisk(8)},
			{Name: "d1", Disk: mkDisk(8)},
			{Name: "d2", Disk: mkDisk(8)},
			{Name: "d3", Disk: mkDisk(32)},
			{Name: "d4", Disk: mkDisk(16)},
		},
	}
	from := layout.New(6, 5)
	to := layout.New(6, 5)
	for i := 0; i < 3; i++ {
		from.Set(i, i, 1)
		to.Set(i, (i+1)%3, 1)
	}
	from.Set(3, 3, 1)
	from.Set(4, 3, 1)
	from.Set(5, 4, 1)
	to.Set(3, 4, 1)
	to.Set(4, 4, 1)
	to.Set(5, 3, 1)
	return sys, from, to
}

func fixtureScratch() ScratchSpec { return ScratchSpec{Target: 3, Bytes: 8 * mib} }

func fixtureSizesCaps(sys *replay.System) (sizes, caps []int64) {
	sizes = make([]int64, len(sys.Objects))
	for i, o := range sys.Objects {
		sizes[i] = o.Size
	}
	caps = make([]int64, len(sys.Devices))
	for j := range sys.Devices {
		caps[j] = sys.Devices[j].Capacity()
	}
	return sizes, caps
}

func layoutsEqual(a, b *layout.Layout) bool {
	if a.N != b.N || a.M != b.M {
		return false
	}
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.M; j++ {
			if d := a.At(i, j) - b.At(i, j); d > 1e-9 || d < -1e-9 {
				return false
			}
		}
	}
	return true
}

func TestMigrationExecutesCleanly(t *testing.T) {
	sys, from, to := migrationFixture()
	var journal bytes.Buffer
	reg := obs.NewRegistry()
	res, err := Execute(sys, from, to, nil, replay.Options{Seed: 1}, Options{
		Scratch:         fixtureScratch(),
		CheckpointBytes: 2 * mib,
		Journal:         &journal,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Migration
	if !m.Done || m.Aborted || m.Crashed {
		t.Fatalf("migration did not finish cleanly: %+v", m)
	}
	if len(res.Plan) != 6 {
		t.Fatalf("plan has %d moves, want 6", len(res.Plan))
	}
	if len(res.Script) != 7 {
		t.Fatalf("script has %d steps, want 7 (6 moves, one staged)", len(res.Script))
	}
	if m.Committed != len(res.Script) || m.CommittedBytes != ScriptBytes(res.Script) {
		t.Fatalf("committed %d steps / %d bytes, want %d / %d",
			m.Committed, m.CommittedBytes, len(res.Script), ScriptBytes(res.Script))
	}
	if m.DeviceBytes != 2*ScriptBytes(res.Script) {
		t.Fatalf("device I/O %d bytes, want read+write of every chunk = %d",
			m.DeviceBytes, 2*ScriptBytes(res.Script))
	}
	if !layoutsEqual(m.Layout, to) {
		t.Fatalf("final layout differs from target:\n%v\nvs\n%v", m.Layout, to)
	}
	sizes, caps := fixtureSizesCaps(sys)
	if err := m.Layout.CheckCapacity(sizes, caps); err != nil {
		t.Fatalf("final layout violates capacity: %v", err)
	}
	records, err := DecodeJournal(journal.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ck, err := Recover(records)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Done {
		t.Fatal("journal does not record completion")
	}
	if got := reg.Counter(obs.Name("migration_committed_bytes_total")).Value(); got != m.CommittedBytes {
		t.Errorf("metrics committed bytes = %d, want %d", got, m.CommittedBytes)
	}
	// The copy I/O must be visible in per-object latency histograms.
	for i := range sys.Objects {
		if res.Replay.ObjectLatency[i].Count == 0 {
			t.Errorf("object %d saw no attributed copy I/O", i)
		}
	}
}

func TestMigrationThrottleStretchesCopy(t *testing.T) {
	sys, from, to := migrationFixture()
	run := func(rate float64) float64 {
		res, err := Execute(sys, from, to, nil, replay.Options{Seed: 1}, Options{
			Scratch:     fixtureScratch(),
			BytesPerSec: rate,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Migration.Elapsed
	}
	unthrottled := run(0)
	throttled := run(8 * float64(mib)) // 44 MiB of copy at 8 MiB/s ≥ 5 s
	if throttled < 5.0 {
		t.Errorf("throttled migration took %.2fs, want >= 5s at 8 MiB/s", throttled)
	}
	if throttled < 2*unthrottled {
		t.Errorf("throttle had no effect: %.2fs vs %.2fs unthrottled", throttled, unthrottled)
	}
}

// crashWriter is a journal sink that fails after a fixed number of appends,
// optionally leaving a torn (half-written, newline-less) final line like a
// real crash mid-write.
type crashWriter struct {
	buf       *bytes.Buffer
	remaining int
	torn      bool
}

func (w *crashWriter) Write(p []byte) (int, error) {
	if w.remaining <= 0 {
		if w.torn && len(p) > 1 {
			n := len(p) / 2
			w.buf.Write(p[:n])
			return n, errors.New("injected crash (torn write)")
		}
		return 0, errors.New("injected crash")
	}
	w.remaining--
	return w.buf.Write(p)
}

// TestCrashAtEveryJournalRecord kills the migration after every single
// journal record and restarts it from the surviving journal, asserting the
// stacked runs converge to the target layout with every step committed
// exactly once and capacity invariants intact throughout.
func TestCrashAtEveryJournalRecord(t *testing.T) {
	for _, torn := range []bool{false, true} {
		name := "clean-cut"
		if torn {
			name = "torn-final-line"
		}
		t.Run(name, func(t *testing.T) {
			sys, from, to := migrationFixture()
			sizes, caps := fixtureSizesCaps(sys)
			var journal []byte
			var final *ExecuteResult
			crashes := 0
			for iter := 0; iter < 200; iter++ {
				durable := append([]byte(nil), TruncateTorn(journal)...)
				buf := bytes.NewBuffer(append([]byte(nil), durable...))
				w := &crashWriter{buf: buf, remaining: 1, torn: torn}
				res, err := Execute(sys, from, to, nil, replay.Options{Seed: 1}, Options{
					Scratch:         fixtureScratch(),
					CheckpointBytes: 2 * mib,
					Journal:         w,
					Resume:          durable,
				})
				journal = buf.Bytes()
				if err == nil {
					final = res
					break
				}
				crashes++
				if res == nil || res.Migration == nil || !res.Migration.Crashed {
					t.Fatalf("iteration %d: error %v without a crashed result", iter, err)
				}
				// The surviving journal must recover to a consistent,
				// capacity-respecting intermediate layout.
				live := TruncateTorn(journal)
				if len(live) == 0 {
					continue // crashed before the plan record became durable
				}
				records, derr := DecodeJournal(live)
				if derr != nil {
					t.Fatalf("iteration %d: surviving journal corrupt: %v", iter, derr)
				}
				ck, rerr := Recover(records)
				if rerr != nil {
					t.Fatalf("iteration %d: surviving journal unrecoverable: %v", iter, rerr)
				}
				mid := from.Clone()
				for i, st := range ck.State {
					if st == StateCommitted {
						applyStep(mid, ck.Steps[i])
					}
				}
				if err := mid.CheckIntegrity(); err != nil {
					t.Fatalf("iteration %d: mid-migration layout inconsistent: %v", iter, err)
				}
				if err := mid.CheckCapacity(sizes, caps); err != nil {
					t.Fatalf("iteration %d: mid-migration layout overflows: %v", iter, err)
				}
			}
			if final == nil {
				t.Fatal("migration never completed within 200 crash-resume cycles")
			}
			m := final.Migration
			if !m.Done {
				t.Fatal("final run did not report Done")
			}
			if m.CommittedBytes != ScriptBytes(final.Script) {
				t.Fatalf("committed %d bytes across all runs, want %d (no lost or double-counted bytes)",
					m.CommittedBytes, ScriptBytes(final.Script))
			}
			if !layoutsEqual(m.Layout, to) {
				t.Fatalf("converged layout differs from target:\n%v\nvs\n%v", m.Layout, to)
			}
			// Each step needs >= 3 records, so the crash loop must have
			// bitten many times; a low count means crashes were skipped.
			if minCrashes := 3 * len(final.Script); crashes < minCrashes {
				t.Fatalf("only %d crash-resume cycles for a %d-step script (want >= %d)",
					crashes, len(final.Script), minCrashes)
			}
			// The combined journal commits every step exactly once.
			records, err := DecodeJournal(journal)
			if err != nil {
				t.Fatal(err)
			}
			commits := make([]int, len(final.Script))
			plans, dones := 0, 0
			for _, r := range records {
				switch {
				case r.T == "plan":
					plans++
				case r.T == "done":
					dones++
				case r.T == "state" && r.State == StateCommitted.String():
					commits[r.Step]++
				}
			}
			if plans != 1 || dones != 1 {
				t.Fatalf("journal has %d plan and %d done records, want 1 and 1", plans, dones)
			}
			for i, n := range commits {
				if n != 1 {
					t.Fatalf("step %d committed %d times", i, n)
				}
			}
		})
	}
}

// powerLossWriter models a journal file on a real disk: Write lands in an
// OS buffer and only Sync makes it durable. A crash discards the unsynced
// suffix — the failure mode the fsync-at-commit-point protocol exists for
// (a plain process crash never loses acknowledged writes; a power loss
// does).
type powerLossWriter struct {
	buf       bytes.Buffer
	synced    int // durable prefix length
	remaining int // appends before the injected power loss
}

func (w *powerLossWriter) Write(p []byte) (int, error) {
	if w.remaining <= 0 {
		return 0, errors.New("injected power loss")
	}
	w.remaining--
	return w.buf.Write(p)
}

func (w *powerLossWriter) Sync() error {
	w.synced = w.buf.Len()
	return nil
}

// durable returns what survives the power loss: the synced prefix only.
func (w *powerLossWriter) durable() []byte {
	return append([]byte(nil), w.buf.Bytes()[:w.synced]...)
}

// TestCrashAtSyncBoundary extends the crash-at-every-record torture test
// with power-loss semantics under batched syncs: with SyncEvery=3 a crash
// can land after a progress record was written but before it was synced,
// so the record vanishes even though the engine's append succeeded. The
// stacked runs must still converge with every step committed exactly once
// — lost progress records may only cost recopied bytes, never correctness.
func TestCrashAtSyncBoundary(t *testing.T) {
	sys, from, to := migrationFixture()
	sizes, caps := fixtureSizesCaps(sys)
	var durable []byte
	var final *ExecuteResult
	crashes, discards := 0, 0
	allow := 1
	for iter := 0; iter < 400; iter++ {
		w := &powerLossWriter{remaining: allow}
		w.buf.Write(durable)
		w.synced = len(durable)
		res, err := Execute(sys, from, to, nil, replay.Options{Seed: 1}, Options{
			Scratch:         fixtureScratch(),
			CheckpointBytes: 2 * mib,
			SyncEvery:       3,
			Journal:         w,
			Resume:          durable,
		})
		if err == nil {
			final = res
			break
		}
		crashes++
		if res == nil || res.Migration == nil || !res.Migration.Crashed {
			t.Fatalf("iteration %d: error %v without a crashed result", iter, err)
		}
		if w.buf.Len() > w.synced {
			discards++ // the crash really did swallow an unsynced suffix
		}
		next := w.durable()
		if len(next) > len(durable) {
			allow = 1 // durable progress: go back to crashing ASAP
		} else {
			// No record became durable (the appends since the last sync
			// were all unsynced progress records). Allow one more append
			// next time so the run eventually reaches a forced sync.
			allow++
		}
		durable = next
		if len(durable) == 0 {
			continue
		}
		records, derr := DecodeJournal(durable)
		if derr != nil {
			t.Fatalf("iteration %d: durable journal corrupt: %v", iter, derr)
		}
		ck, rerr := Recover(records)
		if rerr != nil {
			t.Fatalf("iteration %d: durable journal unrecoverable: %v", iter, rerr)
		}
		mid := from.Clone()
		for i, st := range ck.State {
			if st == StateCommitted {
				applyStep(mid, ck.Steps[i])
			}
		}
		if err := mid.CheckIntegrity(); err != nil {
			t.Fatalf("iteration %d: mid-migration layout inconsistent: %v", iter, err)
		}
		if err := mid.CheckCapacity(sizes, caps); err != nil {
			t.Fatalf("iteration %d: mid-migration layout overflows: %v", iter, err)
		}
	}
	if final == nil {
		t.Fatal("migration never completed within 400 power-loss-resume cycles")
	}
	m := final.Migration
	if !m.Done {
		t.Fatal("final run did not report Done")
	}
	if m.CommittedBytes != ScriptBytes(final.Script) {
		t.Fatalf("committed %d bytes across all runs, want %d (no lost or double-counted bytes)",
			m.CommittedBytes, ScriptBytes(final.Script))
	}
	if !layoutsEqual(m.Layout, to) {
		t.Fatalf("converged layout differs from target:\n%v\nvs\n%v", m.Layout, to)
	}
	if crashes < 2*len(final.Script) {
		t.Fatalf("only %d power-loss cycles for a %d-step script", crashes, len(final.Script))
	}
	if discards == 0 {
		t.Fatal("no crash ever discarded an unsynced suffix; the sync boundary was never exercised")
	}
}

// TestJournalWriterSyncBatching pins the sync policy: a transition record
// waits for sync, which the engine calls before the transition applies, and
// progress records sync every syncEvery-th append.
func TestJournalWriterSyncBatching(t *testing.T) {
	w := &powerLossWriter{remaining: 1 << 20}
	jw := &journalWriter{w: w, syncEvery: 3}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(jw.append(Record{T: "plan", Steps: sampleSteps()}))
	must(jw.append(Record{T: "state", Step: 0, State: StateCopying.String()}))
	if w.synced != 0 {
		t.Fatal("transition records synced on append")
	}
	must(jw.sync())
	if w.synced != w.buf.Len() {
		t.Fatal("sync left transition records unsynced")
	}
	must(jw.append(Record{T: "progress", Step: 0, Done: 1}))
	must(jw.append(Record{T: "progress", Step: 0, Done: 2}))
	if w.synced == w.buf.Len() {
		t.Fatal("progress records synced before the batch filled")
	}
	must(jw.sync())
	if w.synced == w.buf.Len() {
		t.Fatal("sync with no transition record pending flushed a progress batch")
	}
	must(jw.append(Record{T: "progress", Step: 0, Done: 3}))
	if w.synced != w.buf.Len() {
		t.Fatal("third progress record did not force a sync")
	}
	must(jw.append(Record{T: "progress", Step: 0, Done: 4}))
	if w.synced == w.buf.Len() {
		t.Fatal("batch counter did not reset after the forced sync")
	}
	must(jw.append(Record{T: "state", Step: 0, State: StateCopied.String()}))
	must(jw.sync())
	if w.synced != w.buf.Len() {
		t.Fatal("transition record after unsynced progress not synced")
	}
}

// syncWriter is a journal sink that watches the sync rule. It decodes each
// appended record and counts the transition (non-progress) records written
// since the last Sync; failSync, when set, decides whether a Sync fails.
type syncWriter struct {
	t        *testing.T
	buf      bytes.Buffer
	records  []Record
	syncs    int
	unsynced int // transition records appended since the last Sync
	failSync func(w *syncWriter) bool
	failed   bool // a Sync has failed
}

func (w *syncWriter) Write(p []byte) (int, error) {
	body, err := wal.DecodeFrame(bytes.TrimSuffix(p, []byte("\n")), len(w.records))
	if err != nil {
		w.t.Fatal(err)
	}
	r, err := DecodeRecordBody(body)
	if err != nil {
		w.t.Fatal(err)
	}
	w.records = append(w.records, r)
	if r.T != "progress" {
		w.unsynced++
	}
	return w.buf.Write(p)
}

func (w *syncWriter) Sync() error {
	if w.failSync != nil && w.failSync(w) {
		w.failed = true
		return errors.New("injected sync failure")
	}
	w.syncs++
	w.unsynced = 0
	return nil
}

// submitHookIO wraps the engine's IO and runs hook before every Submit.
type submitHookIO struct {
	IO
	hook func()
}

func (s *submitHookIO) Submit(dev, obj int, stream uint64, off, size int64, write bool, done func(failed bool)) {
	s.hook()
	s.IO.Submit(dev, obj, stream, off, size, write, done)
}

// runFixtureEngine runs a fresh migration of the fixture's script over an
// idle replay, with hook before every Submit, and returns its result and the
// script.
func runFixtureEngine(t *testing.T, opt Options, hook func()) (*Result, []Step) {
	t.Helper()
	sys, from, to := migrationFixture()
	sizes, caps := fixtureSizesCaps(sys)
	plan, err := layout.MigrationPlan(from, to, sizes)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := BuildScript(from, plan, sizes, caps, opt.Scratch)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	ropt := replay.Options{Seed: 1}
	ropt.Background = func(sim *replay.BackgroundIO) {
		eng, err := NewEngine(&submitHookIO{IO: sim, hook: hook}, from, steps, opt, func(r *Result) { res = r })
		if err != nil {
			t.Fatal(err)
		}
		eng.Start()
	}
	if _, err := replay.RunIdle(sys, from, ropt); err != nil && res == nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("engine never finished")
	}
	return res, steps
}

// TestJournalSyncsPerStepBoundary pins the sync rule: every transition
// record is synced before the next chunk is submitted, and records with no
// device I/O between them share a sync, so a run without progress marks
// syncs once per step boundary — n+1 times for n steps, not once per record.
func TestJournalSyncsPerStepBoundary(t *testing.T) {
	w := &syncWriter{t: t}
	submits := 0
	res, steps := runFixtureEngine(t, Options{
		Scratch:         fixtureScratch(),
		CheckpointBytes: 1 << 40, // no progress marks
		Journal:         w,
	}, func() {
		submits++
		if w.unsynced > 0 {
			t.Fatalf("chunk submitted with %d transition records unsynced (record %d, %+v)",
				w.unsynced, len(w.records)-1, w.records[len(w.records)-1])
		}
	})
	if !res.Done {
		t.Fatalf("run did not finish: %v", res.Err)
	}
	n := len(steps)
	if got, want := len(w.records), 3*n+2; got != want || res.JournalRecords != want {
		t.Fatalf("%d records (%d counted) for %d steps, want %d", got, res.JournalRecords, n, want)
	}
	if w.unsynced > 0 {
		t.Fatalf("%d transition records left unsynced after done", w.unsynced)
	}
	if w.syncs != n+1 {
		t.Fatalf("%d syncs for %d steps, want %d (one per step boundary)", w.syncs, n, n+1)
	}
	if submits == 0 {
		t.Fatal("no chunk was submitted")
	}
}

// TestSyncFailureAppliesNothing: when the sync that covers a step's committed
// record fails, the run crashes without applying the step — no chunk is
// submitted after it, and the result's layout and committed counts exclude
// the step.
func TestSyncFailureAppliesNothing(t *testing.T) {
	_, steps := runFixtureEngine(t, Options{Scratch: fixtureScratch()}, func() {})
	for s := range steps {
		w := &syncWriter{t: t, failSync: func(w *syncWriter) bool {
			for _, r := range w.records {
				if r.T == "state" && r.Step == s && r.State == StateCommitted.String() {
					return true
				}
			}
			return false
		}}
		res, _ := runFixtureEngine(t, Options{Scratch: fixtureScratch(), Journal: w}, func() {
			if w.failed {
				t.Fatalf("step %d: chunk submitted after the failed sync", s)
			}
		})
		if !w.failed {
			t.Fatalf("step %d: the sync covering its committed record never ran", s)
		}
		if !res.Crashed || res.Done || res.Aborted {
			t.Fatalf("step %d: result %+v, want crashed", s, res)
		}
		_, want, _ := migrationFixture()
		var wantBytes int64
		for _, st := range steps[:s] {
			applyStep(want, st)
			wantBytes += st.Move.Bytes
		}
		if res.Committed != s || res.CommittedBytes != wantBytes {
			t.Fatalf("step %d: committed %d steps / %d bytes, want %d / %d", s, res.Committed, res.CommittedBytes, s, wantBytes)
		}
		if !layoutsEqual(res.Layout, want) {
			t.Fatalf("step %d: crashed layout applies the step:\n%v\nwant\n%v", s, res.Layout, want)
		}
	}
}

// fixtureInstance mirrors migrationFixture as a solvable layout.Instance so
// RecommendRepair can replan an aborted migration of it.
func fixtureInstance(sys *replay.System) *layout.Instance {
	names := []string{"d0", "d1", "d2", "d3", "d4"}
	model := layouttest.DiskModel()
	targets := make([]*layout.Target, len(names))
	for j, n := range names {
		targets[j] = &layout.Target{Name: n, Capacity: sys.Devices[j].Capacity(), Model: model}
	}
	ws := make([]*rome.Workload, len(sys.Objects))
	for i, o := range sys.Objects {
		overlap := make([]float64, len(sys.Objects))
		for k := range overlap {
			overlap[k] = 0.1
		}
		overlap[i] = 1
		ws[i] = &rome.Workload{
			Name: o.Name, ReadSize: 8192, ReadRate: 5 + float64(i),
			RunCount: 1, Overlap: overlap,
		}
	}
	set, err := rome.NewSet(ws...)
	if err != nil {
		panic(err)
	}
	inst := &layout.Instance{Objects: sys.Objects, Targets: targets, Workloads: set}
	if err := inst.Validate(); err != nil {
		panic(err)
	}
	return inst
}

// TestDestinationFailureAbortsRollsBackAndReplans drives the acceptance
// scenario end to end: a destination disk fails mid-copy, the engine rolls
// the in-flight move back and aborts into a consistent layout, and
// RecommendRepair plus a reconstruction-mode execution evacuate the dead
// disk.
func TestDestinationFailureAbortsRollsBackAndReplans(t *testing.T) {
	sys, from, to := migrationFixture()
	// d4 is the destination of the first script steps (D and E move to
	// it); fail it a few dozen milliseconds in, mid-copy.
	sys.Devices[4].Faults = &storage.FaultSchedule{Fail: &storage.FailFault{At: 0.05}}
	var journal bytes.Buffer
	res, err := Execute(sys, from, to, nil, replay.Options{Seed: 1}, Options{
		Scratch: fixtureScratch(),
		Journal: &journal,
	})
	if !errors.Is(err, ErrMigrationAborted) {
		t.Fatalf("Execute = %v, want ErrMigrationAborted", err)
	}
	m := res.Migration
	if !m.Aborted || m.Done {
		t.Fatalf("result not aborted: %+v", m)
	}
	if len(m.FailedTargets) != 1 || m.FailedTargets[0] != 4 {
		t.Fatalf("failed targets %v, want [4]", m.FailedTargets)
	}
	if m.Committed >= len(res.Script) {
		t.Fatal("abort after every step committed — fault came too late")
	}

	// The journal must record the rollback of the in-flight step and the
	// abort, and recover to the same consistent layout.
	records, err := DecodeJournal(journal.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ck, err := Recover(records)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Aborted {
		t.Fatal("journal does not record the abort")
	}
	rolledBack := 0
	for _, st := range ck.State {
		if st == StateRolledBack {
			rolledBack++
		}
	}
	if rolledBack != 1 {
		t.Fatalf("%d steps rolled back, want exactly the in-flight one", rolledBack)
	}
	sizes, caps := fixtureSizesCaps(sys)
	if err := m.Layout.CheckIntegrity(); err != nil {
		t.Fatalf("aborted layout inconsistent: %v", err)
	}
	if err := m.Layout.CheckCapacity(sizes, caps); err != nil {
		t.Fatalf("aborted layout overflows: %v", err)
	}
	// Resuming an aborted journal must be refused.
	if _, err := Execute(sys, from, to, nil, replay.Options{Seed: 1}, Options{
		Scratch: fixtureScratch(),
		Resume:  journal.Bytes(),
	}); !errors.Is(err, ErrMigrationAborted) {
		t.Fatalf("resume of aborted journal = %v, want ErrMigrationAborted", err)
	}

	// Replan the remainder around the dead disk.
	inst := fixtureInstance(sys)
	rep, err := core.RecommendRepair(context.Background(), inst, m.Layout, m.FailedTargets, core.Options{NLP: nlp.Options{Seed: 1}})
	if err != nil {
		t.Fatalf("RecommendRepair: %v", err)
	}
	steps, err := BuildScript(m.Layout, rep.Plan, sizes, caps, fixtureScratch())
	if err != nil {
		t.Fatalf("BuildScript: %v", err)
	}
	for i := 0; i < rep.Layout.N; i++ {
		if rep.Layout.At(i, 4) != 0 {
			t.Fatalf("repair leaves object %d on the failed disk", i)
		}
	}
	if len(steps) == 0 {
		t.Fatal("repair needs data movement but the script is empty")
	}

	// Execute the repair in reconstruction mode on the degraded system.
	sys2, _, _ := migrationFixture()
	sys2.Devices[4].Faults = &storage.FaultSchedule{Fail: &storage.FailFault{At: 0}}
	var journal2 bytes.Buffer
	res2, err := Execute(sys2, m.Layout, rep.Layout, nil, replay.Options{Seed: 1}, Options{
		Scratch:       fixtureScratch(),
		Journal:       &journal2,
		FailedSources: m.FailedTargets,
	})
	if err != nil {
		t.Fatalf("repair execution: %v", err)
	}
	if !res2.Migration.Done {
		t.Fatal("repair migration did not finish")
	}
	if res2.Migration.ReconstructedBytes == 0 {
		t.Fatal("evacuating a dead disk must reconstruct data (no source reads possible)")
	}
	if !layoutsEqual(res2.Migration.Layout, rep.Layout) {
		t.Fatalf("repair converged to the wrong layout:\n%v\nvs\n%v", res2.Migration.Layout, rep.Layout)
	}
}

// TestCrashBetweenRollbackAndAbortCompletesOnResume pins the fault-crash
// protocol: the fault handler journals the step rollback and then the abort
// record, and a crash landing exactly between the two must not let a resume
// skip the rolled-back step and run the rest of the script — that path can
// turn a device fault into a silent "done" that committed nothing. The
// rollback record carries the failed target, and the resumed engine's first
// act is to complete the abort.
func TestCrashBetweenRollbackAndAbortCompletesOnResume(t *testing.T) {
	for budget := 1; budget < 200; budget++ {
		sys, from, to := migrationFixture()
		sys.Devices[4].Faults = &storage.FaultSchedule{Fail: &storage.FailFault{At: 0.05}}
		buf := &bytes.Buffer{}
		w := &crashWriter{buf: buf, remaining: budget}
		_, _ = Execute(sys, from, to, nil, replay.Options{Seed: 1}, Options{
			Scratch: fixtureScratch(),
			Journal: w,
		})
		durable := TruncateTorn(buf.Bytes())
		records, err := DecodeJournal(durable)
		if err != nil {
			t.Fatalf("budget %d: surviving journal corrupt: %v", budget, err)
		}
		ck, err := Recover(records)
		if err != nil {
			t.Fatalf("budget %d: surviving journal unrecoverable: %v", budget, err)
		}
		if !ck.PendingAbort {
			continue // crash landed elsewhere; not the window under test
		}
		if len(ck.Failed) != 1 || ck.Failed[0] != 4 {
			t.Fatalf("pending abort lost the failed target: %v", ck.Failed)
		}

		// Resume on the still-degraded system: the engine must finish the
		// abort as its very first record and report the fault upward.
		sys2, from2, to2 := migrationFixture()
		sys2.Devices[4].Faults = &storage.FaultSchedule{Fail: &storage.FailFault{At: 0}}
		buf2 := bytes.NewBuffer(append([]byte(nil), durable...))
		res, err := Execute(sys2, from2, to2, nil, replay.Options{Seed: 1}, Options{
			Scratch: fixtureScratch(),
			Journal: buf2,
			Resume:  durable,
		})
		if !errors.Is(err, ErrMigrationAborted) {
			t.Fatalf("resume = %v, want ErrMigrationAborted", err)
		}
		m := res.Migration
		if !m.Aborted || m.Done {
			t.Fatalf("resumed result not aborted: %+v", m)
		}
		if len(m.FailedTargets) != 1 || m.FailedTargets[0] != 4 {
			t.Fatalf("resumed abort reports targets %v, want [4]", m.FailedTargets)
		}
		if m.JournalRecords != 1 {
			t.Fatalf("resume appended %d records, want exactly the abort", m.JournalRecords)
		}
		if m.DeviceBytes != 0 {
			t.Fatalf("resume issued %d bytes of device I/O while completing an abort", m.DeviceBytes)
		}
		records, err = DecodeJournal(buf2.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		ck, err = Recover(records)
		if err != nil {
			t.Fatal(err)
		}
		if !ck.Aborted || ck.PendingAbort {
			t.Fatalf("completed journal = %+v, want aborted", ck)
		}
		return
	}
	t.Fatal("no crash budget landed between the rollback and abort records")
}

func TestExecuteResumeRejectsMismatchedPlan(t *testing.T) {
	sys, from, to := migrationFixture()
	var journal bytes.Buffer
	if _, err := Execute(sys, from, to, nil, replay.Options{Seed: 1}, Options{
		Scratch: fixtureScratch(),
		Journal: &journal,
	}); err != nil {
		t.Fatal(err)
	}
	// Shrink one object: the rebuilt script no longer matches the journal.
	sys.Objects[0].Size = 4 * mib
	_, err := Execute(sys, from, to, nil, replay.Options{Seed: 1}, Options{
		Scratch: fixtureScratch(),
		Resume:  journal.Bytes(),
		Journal: &journal,
	})
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("mismatched resume = %v, want ErrJournalCorrupt", err)
	}
}

// TestExecuteResumeOfFinishedJournal re-runs a completed migration and gets
// the completed result back without any new simulation work.
func TestExecuteResumeOfFinishedJournal(t *testing.T) {
	sys, from, to := migrationFixture()
	var journal bytes.Buffer
	if _, err := Execute(sys, from, to, nil, replay.Options{Seed: 1}, Options{
		Scratch: fixtureScratch(),
		Journal: &journal,
	}); err != nil {
		t.Fatal(err)
	}
	before := journal.Len()
	res, err := Execute(sys, from, to, nil, replay.Options{Seed: 1}, Options{
		Scratch: fixtureScratch(),
		Resume:  journal.Bytes(),
		Journal: &journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Migration.Done || res.Migration.DeviceBytes != 0 {
		t.Fatalf("finished journal re-executed work: %+v", res.Migration)
	}
	if journal.Len() != before {
		t.Error("re-run of a finished journal appended records")
	}
	if !layoutsEqual(res.Migration.Layout, to) {
		t.Error("finished-journal result lost the final layout")
	}
}

// Compile-time check that the replay simulation surface satisfies the
// engine's IO dependency without adapters.
var _ IO = (*replay.BackgroundIO)(nil)
