package control

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"dblayout/internal/layout"
	"dblayout/internal/migrate"
	"dblayout/internal/wal"
)

// mustEncodeJournal CRC-frames any mix of controller and migration records.
func mustEncodeJournal(recs ...interface{}) []byte {
	var buf bytes.Buffer
	for _, r := range recs {
		body, err := json.Marshal(r)
		if err != nil {
			panic(err)
		}
		if err := wal.Append(&buf, body); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

func encodeJournal(t *testing.T, recs ...interface{}) []byte {
	t.Helper()
	return mustEncodeJournal(recs...)
}

func testBegin() Record {
	return Record{T: recBegin, N: 2, M: 2, Rows: [][]float64{{1, 0}, {0, 1}}, Seed: 9}
}

func testSteps() []migrate.Step {
	return []migrate.Step{{
		Move: layout.Move{Object: 0, From: 0, To: 1, Fraction: 0.5, Bytes: 1024},
	}}
}

func testPlan(epoch, attempt int) Record {
	return Record{T: recPlan, Epoch: epoch, Attempt: attempt, Steps: testSteps(), Reason: "test"}
}

// Engine-namespace records for an epoch's segment.
func segPlan() migrate.Record  { return migrate.Record{T: "plan", Steps: testSteps()} }
func segAbort() migrate.Record { return migrate.Record{T: "abort", Failed: []int{1}, Reason: "x"} }
func segState(step int, state string) migrate.Record {
	return migrate.Record{T: "state", Step: step, State: state}
}
func segDone() migrate.Record { return migrate.Record{T: "done"} }

func doneSegment() []interface{} {
	return []interface{}{
		segPlan(),
		segState(0, "copying"), segState(0, "copied"), segState(0, "committed"),
		segDone(),
	}
}

func flatten(recs ...interface{}) []interface{} {
	var out []interface{}
	for _, r := range recs {
		if rs, ok := r.([]interface{}); ok {
			out = append(out, rs...)
			continue
		}
		out = append(out, r)
	}
	return out
}

// TestRecoverRejects exercises the journal grammar: every sequence the
// controller could not have produced must be detected as corruption.
func TestRecoverRejects(t *testing.T) {
	cases := []struct {
		name string
		recs []interface{}
	}{
		{"empty journal", nil},
		{"no cbegin", []interface{}{testPlan(1, 1)}},
		{"second cbegin", []interface{}{testBegin(), testBegin()}},
		{"cbegin row shape", []interface{}{Record{T: recBegin, N: 2, M: 2, Rows: [][]float64{{1, 0}}, Seed: 9}}},
		{"cbegin bad layout", []interface{}{Record{T: recBegin, N: 2, M: 2, Rows: [][]float64{{0.5, 0}, {0, 1}}, Seed: 9}}},
		{"migration record outside epoch", []interface{}{testBegin(), segPlan()}},
		{"cplan epoch skip", []interface{}{testBegin(), testPlan(2, 1)}},
		{"cplan attempt mismatch", []interface{}{testBegin(), testPlan(1, 2)}},
		{"cplan no steps", []interface{}{testBegin(), Record{T: recPlan, Epoch: 1, Attempt: 1}}},
		{"cplan while open", []interface{}{testBegin(), testPlan(1, 1), testPlan(2, 1)}},
		{"coutcome without epoch", []interface{}{testBegin(), Record{T: recOutcome, Epoch: 1, Outcome: outcomeDone}}},
		{"coutcome epoch mismatch", flatten(testBegin(), testPlan(1, 1), doneSegment(),
			Record{T: recOutcome, Epoch: 2, Outcome: outcomeDone})},
		{"coutcome empty segment", []interface{}{testBegin(), testPlan(1, 1),
			Record{T: recOutcome, Epoch: 1, Outcome: outcomeDone}}},
		{"outcome done vs aborted segment", []interface{}{testBegin(), testPlan(1, 1), segPlan(), segAbort(),
			Record{T: recOutcome, Epoch: 1, Outcome: outcomeDone}}},
		{"outcome aborted vs done segment", flatten(testBegin(), testPlan(1, 1), doneSegment(),
			Record{T: recOutcome, Epoch: 1, Outcome: outcomeAborted})},
		{"unknown outcome", flatten(testBegin(), testPlan(1, 1), doneSegment(),
			Record{T: recOutcome, Epoch: 1, Outcome: "maybe"})},
		{"cretry while open", []interface{}{testBegin(), testPlan(1, 1),
			Record{T: recRetry, Epoch: 1, Attempt: 2, Delay: 1}}},
		{"cretry attempt mismatch", []interface{}{testBegin(),
			Record{T: recRetry, Attempt: 3, Delay: 1}}},
		{"cretry negative delay", []interface{}{testBegin(),
			Record{T: recRetry, Attempt: 2, Delay: -1}}},
		{"cplan before retry decision", []interface{}{testBegin(), testPlan(1, 1), segPlan(), segAbort(),
			Record{T: recOutcome, Epoch: 1, Outcome: outcomeAborted, Failed: []int{1}},
			testPlan(2, 1)}},
		{"segment diverges from cplan", []interface{}{testBegin(), testPlan(1, 1),
			migrate.Record{T: "plan", Steps: []migrate.Step{{
				Move: layout.Move{Object: 0, From: 1, To: 0, Fraction: 0.5, Bytes: 2048},
			}}}}},
	}
	for _, tc := range cases {
		data := encodeJournal(t, tc.recs...)
		ck, err := Recover(data)
		if err == nil {
			t.Errorf("%s: accepted (checkpoint %+v)", tc.name, ck)
			continue
		}
		if !errors.Is(err, ErrControllerCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrControllerCorrupt", tc.name, err)
		}
	}
}

// TestRecoverStates walks the valid crash points of one episode and checks
// the recovered state at each.
func TestRecoverStates(t *testing.T) {
	begin := testBegin()

	t.Run("cbegin only", func(t *testing.T) {
		ck, err := Recover(encodeJournal(t, begin))
		if err != nil {
			t.Fatal(err)
		}
		if ck.Epoch != 0 || ck.Attempt != 1 || ck.Open != nil || ck.Retry != nil || ck.Cooling || ck.NeedRetryDecision {
			t.Fatalf("checkpoint: %+v", ck)
		}
		if ck.Current.At(0, 0) != 1 || ck.Current.At(1, 1) != 1 {
			t.Fatalf("layout not the cbegin one: %v", ck.Current)
		}
	})

	t.Run("open epoch no engine records", func(t *testing.T) {
		ck, err := Recover(encodeJournal(t, begin, testPlan(1, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if ck.Open == nil || ck.Open.Checkpoint != nil {
			t.Fatalf("open epoch: %+v", ck.Open)
		}
	})

	t.Run("open epoch mid copy", func(t *testing.T) {
		ck, err := Recover(encodeJournal(t, begin, testPlan(1, 1), segPlan(), segState(0, "copying"),
			migrate.Record{T: "progress", Step: 0, Done: 512}))
		if err != nil {
			t.Fatal(err)
		}
		if ck.Open == nil || ck.Open.Checkpoint == nil {
			t.Fatalf("open epoch: %+v", ck.Open)
		}
		if got := ck.Open.Checkpoint.Progress[0]; got != 512 {
			t.Fatalf("progress: %d", got)
		}
	})

	t.Run("done epoch cooling", func(t *testing.T) {
		ck, err := Recover(encodeJournal(t, flatten(begin, testPlan(1, 1), doneSegment(),
			Record{T: recOutcome, Epoch: 1, Outcome: outcomeDone, Cooldown: 3})...))
		if err != nil {
			t.Fatal(err)
		}
		if !ck.Cooling || ck.Open != nil || ck.Attempt != 1 {
			t.Fatalf("checkpoint: %+v", ck)
		}
		// The committed half-move must be applied.
		if got := ck.Current.At(0, 1); got != 0.5 {
			t.Fatalf("committed step not applied: row0 %v", ck.Current.Row(0))
		}
	})

	t.Run("aborted epoch needs decision", func(t *testing.T) {
		ck, err := Recover(encodeJournal(t, begin, testPlan(1, 1), segPlan(), segAbort(),
			Record{T: recOutcome, Epoch: 1, Outcome: outcomeAborted, Failed: []int{1}}))
		if err != nil {
			t.Fatal(err)
		}
		if !ck.NeedRetryDecision || ck.Retry != nil || ck.Cooling {
			t.Fatalf("checkpoint: %+v", ck)
		}
		if len(ck.Failed) != 1 || ck.Failed[0] != 1 {
			t.Fatalf("failed set: %v", ck.Failed)
		}
	})

	t.Run("aborted epoch with cretry", func(t *testing.T) {
		ck, err := Recover(encodeJournal(t, begin, testPlan(1, 1), segPlan(), segAbort(),
			Record{T: recOutcome, Epoch: 1, Outcome: outcomeAborted, Failed: []int{1}},
			Record{T: recRetry, Epoch: 1, Attempt: 2, Delay: 3, Cause: "abort"}))
		if err != nil {
			t.Fatal(err)
		}
		if ck.NeedRetryDecision || ck.Retry == nil || ck.Retry.Delay != 3 || ck.Attempt != 2 {
			t.Fatalf("checkpoint: %+v", ck)
		}
	})

	t.Run("give-up cools down", func(t *testing.T) {
		ck, err := Recover(encodeJournal(t, begin, testPlan(1, 1), segPlan(), segAbort(),
			Record{T: recOutcome, Epoch: 1, Outcome: outcomeAborted, Failed: []int{1}},
			Record{T: recFail, Attempt: 1, Cause: "abort"}))
		if err != nil {
			t.Fatal(err)
		}
		if !ck.Cooling || ck.Attempt != 1 || ck.NeedRetryDecision {
			t.Fatalf("checkpoint: %+v", ck)
		}
	})

	t.Run("torn tail ignored", func(t *testing.T) {
		data := encodeJournal(t, begin, testPlan(1, 1))
		torn := append(append([]byte(nil), data...), []byte("deadbeef {\"t\":\"cpl")...)
		ck, err := Recover(wal.TruncateTorn(torn))
		if err != nil {
			t.Fatal(err)
		}
		if ck.Open == nil {
			t.Fatalf("checkpoint: %+v", ck)
		}
	})
}

// TestJournalOwnerResume pins the open-epoch rule the controller and the
// daemon share: a cplan's copy options survive the journal, Plan refuses to
// open an epoch over an open one, and an engine checkpoint that already says
// done is reported to the completion callback without re-running anything.
func TestJournalOwnerResume(t *testing.T) {
	copyOpt := CopyOptions{BytesPerSec: 1 << 20, ChunkBytes: 256, CheckpointBytes: 512, SyncEvery: 4}
	plan := testPlan(1, 1)
	plan.Copy = &copyOpt
	data := encodeJournal(t, flatten(testBegin(), plan, doneSegment())...)
	var appended bytes.Buffer
	j, ck, err := Reopen(&appended, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := ck.Open.Plan.Copy; got == nil || *got != copyOpt {
		t.Fatalf("cplan copy options = %+v, want %+v", got, copyOpt)
	}
	if err := j.Plan(testPlan(2, 1)); err == nil {
		t.Fatal("Plan opened an epoch over an open one")
	}
	var res *migrate.Result
	eng, err := j.Resume(ck, nil, migrate.Options{}, func(r *migrate.Result) { res = r })
	if err != nil || eng != nil || res == nil || !res.Done {
		t.Fatalf("Resume = %v, %v; reported %+v, want a done outcome and no engine", eng, err, res)
	}
	if got := res.Layout.At(0, 1); got != 0.5 {
		t.Fatalf("reported layout misses the committed step: row0 %v", res.Layout.Row(0))
	}
	if err := j.Outcome(res, 3); err != nil {
		t.Fatal(err)
	}
	ck, err = Recover(append(data, appended.Bytes()...))
	if err != nil || ck.Open != nil || !ck.Cooling || j.Epoch() != 1 {
		t.Fatalf("after Outcome: %+v, %v (epoch %d)", ck, err, j.Epoch())
	}

	// An aborted epoch's retry decision must land before the next cplan.
	aborted := encodeJournal(t, testBegin(), testPlan(1, 1), segPlan(), segAbort(),
		Record{T: recOutcome, Epoch: 1, Outcome: outcomeAborted, Failed: []int{1}})
	appended.Reset()
	j, _, err = Reopen(&appended, aborted)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Plan(testPlan(2, 1)); err == nil {
		t.Fatal("Plan opened an epoch before the aborted epoch's retry decision")
	}
	if err := j.Fail(1, errors.New("give up")); err != nil {
		t.Fatal(err)
	}
	if err := j.Plan(testPlan(2, 1)); err != nil {
		t.Fatalf("Plan after the retry decision: %v", err)
	}
	ck, err = Recover(append(aborted, appended.Bytes()...))
	if err != nil || ck.Open == nil || ck.Open.Plan.Epoch != 2 || len(ck.Open.Plan.Sources) != 1 {
		t.Fatalf("after Fail and Plan: %+v, %v", ck, err)
	}
}

// TestResumeRemakesRetryDecision: a crash between the aborted outcome and its
// retry decision resumes by re-making exactly that decision, journaling it.
func TestResumeRemakesRetryDecision(t *testing.T) {
	f := newCtFixture(t)
	rows := make([][]float64, f.initial.N)
	for i := range rows {
		rows[i] = f.initial.Row(i)
	}
	cfg := f.config(&bytes.Buffer{}, nil)
	steps := testSteps()
	data := encodeJournal(t,
		Record{T: recBegin, N: f.initial.N, M: f.initial.M, Rows: rows, Seed: cfg.Seed},
		Record{T: recPlan, Epoch: 1, Attempt: 1, Steps: steps, Reason: "test"},
		migrate.Record{T: "plan", Steps: steps},
		segAbort(),
		Record{T: recOutcome, Epoch: 1, Outcome: outcomeAborted, Failed: []int{1}},
	)
	journal := bytes.NewBuffer(append([]byte(nil), data...))
	cfg = f.config(journal, data)
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.Status().Phase != PhaseBackoff {
		t.Fatalf("phase after pending-decision resume: %v", c.Status().Phase)
	}
	ck, err := Recover(journal.Bytes())
	if err != nil {
		t.Fatalf("journal after resume: %v", err)
	}
	if ck.Retry == nil || ck.Retry.Attempt != 2 {
		t.Fatalf("retry decision not journaled: %+v", ck)
	}
	// Resuming again from the extended journal must reproduce the same
	// state without journaling anything new — the decision was made once.
	before := journal.Len()
	c2, err := New(f.config(journal, journal.Bytes()))
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if c2.Status().Phase != PhaseBackoff || journal.Len() != before {
		t.Fatalf("second resume re-decided: phase %v, journal grew %d bytes",
			c2.Status().Phase, journal.Len()-before)
	}
}

// buildTortureJournal drives a real controller through an abort, a retry and
// a completed repair epoch, returning the full journal — the richest record
// stream one episode can produce.
func buildTortureJournal(t *testing.T) []byte {
	t.Helper()
	f := newCtFixture(t)
	f.sim.devs[3].FailAt = 3.5
	var journal bytes.Buffer
	c, err := New(f.config(&journal, nil))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w := f.feed(t, c, 0, 3, f.steady, nil)
	w = f.feed(t, c, w, 1, f.drifted, f.steady)
	for i := 0; i < 60; i++ {
		if st := c.Status(); st.Phase == PhaseObserving && st.Epoch > 0 && c.Status().Attempt == 1 {
			break
		}
		w = f.feed(t, c, w, 1, f.drifted, nil)
	}
	if c.Crashed() {
		t.Fatalf("torture fixture crashed: %v", c.Err())
	}
	data := journal.Bytes()
	if _, err := Recover(data); err != nil {
		t.Fatalf("torture journal does not recover: %v", err)
	}
	return data
}

// TestJournalPrefixTorture: every byte-length prefix of a real journal — the
// state a crash at any write boundary or mid-write leaves behind — must
// recover after torn-tail truncation. This is the crash-at-every-record (and
// every byte) torture for the combined controller+engine stream.
func TestJournalPrefixTorture(t *testing.T) {
	data := buildTortureJournal(t)
	for l := 1; l <= len(data); l++ {
		durable := wal.TruncateTorn(data[:l])
		if len(durable) == 0 {
			continue
		}
		ck, err := Recover(durable)
		if err != nil {
			t.Fatalf("prefix %d/%d bytes: %v", l, len(data), err)
		}
		if err := ck.Current.CheckIntegrity(); err != nil {
			t.Fatalf("prefix %d/%d bytes: recovered layout: %v", l, len(data), err)
		}
	}
}

// TestJournalCorruptionSweep: flipping any single byte of the durable journal
// must be detected (except the final newline, whose loss just makes the last
// record torn). Corruption is never misread as valid state.
func TestJournalCorruptionSweep(t *testing.T) {
	data := buildTortureJournal(t)
	for i := 0; i < len(data)-1; i++ {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x5a
		if _, err := Recover(bad); err == nil {
			t.Fatalf("flipped byte %d (%q) not detected", i, data[i])
		} else if !errors.Is(err, ErrControllerCorrupt) {
			t.Fatalf("flipped byte %d: error %v does not wrap ErrControllerCorrupt", i, err)
		}
	}
	// Final newline: the last record degrades to a torn line, which is a
	// legal crash artifact, not corruption.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0x5a
	if _, err := Recover(wal.TruncateTorn(bad)); err != nil {
		t.Fatalf("torn final record: %v", err)
	}
}
