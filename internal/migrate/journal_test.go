package migrate

import (
	"bytes"
	"errors"
	"testing"

	"dblayout/internal/layout"
)

func sampleSteps() []Step {
	return []Step{
		{Kind: StepStageIn, Move: layout.Move{Object: 0, From: 0, To: 3, Fraction: 1, Bytes: 8 << 20}, MoveIndex: 0},
		{Kind: StepDirect, Move: layout.Move{Object: 2, From: 2, To: 0, Fraction: 1, Bytes: 8 << 20}, MoveIndex: 2},
		{Kind: StepStageOut, Move: layout.Move{Object: 0, From: 3, To: 1, Fraction: 1, Bytes: 8 << 20}, MoveIndex: 0},
	}
}

func sampleJournal(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	jw := &journalWriter{w: &buf}
	scratch := ScratchSpec{Target: 3, Bytes: 8 << 20}
	for _, r := range []Record{
		{T: "plan", Steps: sampleSteps(), Scratch: &scratch},
		{T: "state", Step: 0, State: "copying"},
		{T: "progress", Step: 0, Done: 4 << 20},
		{T: "state", Step: 0, State: "copied"},
		{T: "state", Step: 0, State: "committed"},
		{T: "state", Step: 1, State: "copying"},
	} {
		if err := jw.append(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestJournalRoundTrip(t *testing.T) {
	data := sampleJournal(t)
	records, err := DecodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 6 {
		t.Fatalf("decoded %d records, want 6", len(records))
	}
	if records[0].T != "plan" || len(records[0].Steps) != 3 {
		t.Fatalf("plan record mangled: %+v", records[0])
	}
	if records[0].Steps[0] != sampleSteps()[0] {
		t.Fatalf("step did not roundtrip: %+v", records[0].Steps[0])
	}
	ck, err := Recover(records)
	if err != nil {
		t.Fatal(err)
	}
	if ck.State[0] != StateCommitted || ck.State[1] != StateCopying || ck.State[2] != StatePlanned {
		t.Fatalf("recovered states %v", ck.State)
	}
	if ck.CommittedSteps() != 1 || ck.CommittedBytes() != 8<<20 {
		t.Fatalf("committed %d steps / %d bytes", ck.CommittedSteps(), ck.CommittedBytes())
	}
}

func TestDecodeJournalIgnoresTornTail(t *testing.T) {
	data := sampleJournal(t)
	for cut := 1; cut < 40; cut++ {
		torn := data[:len(data)-cut]
		records, err := DecodeJournal(torn)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(records) != 5 {
			t.Fatalf("cut %d: decoded %d records, want 5", cut, len(records))
		}
	}
}

func TestDecodeJournalRejectsCorruption(t *testing.T) {
	data := sampleJournal(t)
	// Flip one byte in every position of a complete line: every flip must
	// surface as ErrJournalCorrupt, never a panic or silent acceptance.
	firstLine := bytes.IndexByte(data, '\n')
	for i := 0; i <= firstLine; i++ {
		mut := append([]byte(nil), data...)
		if mut[i] == '\n' {
			continue // shortening a line is the torn-tail case
		}
		mut[i] ^= 0x01
		if mut[i] == '\n' {
			continue
		}
		_, err := DecodeJournal(mut)
		if err == nil {
			t.Fatalf("flip at %d accepted", i)
		}
		if !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("flip at %d: %v is not ErrJournalCorrupt", i, err)
		}
	}
	if _, err := DecodeJournal([]byte("tiny\n")); !errors.Is(err, ErrJournalCorrupt) {
		t.Errorf("short line: %v", err)
	}
	if _, err := DecodeJournal([]byte("zzzzzzzz {\"t\":\"done\"}\n")); !errors.Is(err, ErrJournalCorrupt) {
		t.Errorf("non-hex checksum: %v", err)
	}
}

func TestRecoverRejectsImpossibleHistories(t *testing.T) {
	steps := sampleSteps()
	scratch := &ScratchSpec{Target: 3, Bytes: 8 << 20}
	plan := Record{T: "plan", Steps: steps, Scratch: scratch}
	cases := []struct {
		name    string
		records []Record
	}{
		{"empty", nil},
		{"no plan first", []Record{{T: "done"}}},
		{"double plan", []Record{plan, plan}},
		{"skip copying", []Record{plan, {T: "state", Step: 0, State: "committed"}}},
		{"commit twice", []Record{plan,
			{T: "state", Step: 0, State: "copying"},
			{T: "state", Step: 0, State: "copied"},
			{T: "state", Step: 0, State: "committed"},
			{T: "state", Step: 0, State: "committed"}}},
		{"progress before copy", []Record{plan, {T: "progress", Step: 0, Done: 1}}},
		{"progress beyond step", []Record{plan,
			{T: "state", Step: 0, State: "copying"},
			{T: "progress", Step: 0, Done: 9 << 20}}},
		{"progress backwards", []Record{plan,
			{T: "state", Step: 0, State: "copying"},
			{T: "progress", Step: 0, Done: 4 << 20},
			{T: "progress", Step: 0, Done: 2 << 20}}},
		{"step out of range", []Record{plan, {T: "state", Step: 9, State: "copying"}}},
		{"record after done", []Record{plan, {T: "abort"}, {T: "done"}}},
		{"premature done", []Record{plan, {T: "done"}}},
		{"state after rollback", []Record{plan,
			{T: "state", Step: 0, State: "copying"},
			{T: "state", Step: 0, State: "rolledback", Failed: []int{1}},
			{T: "state", Step: 1, State: "copying"}}},
		{"done after rollback", []Record{plan,
			{T: "state", Step: 0, State: "copying"},
			{T: "state", Step: 0, State: "rolledback", Failed: []int{1}},
			{T: "done"}}},
	}
	for _, tc := range cases {
		if _, err := Recover(tc.records); !errors.Is(err, ErrJournalCorrupt) {
			t.Errorf("%s: Recover = %v, want ErrJournalCorrupt", tc.name, err)
		}
	}
}

// TestRecoverPendingAbort: a journal ending right after a rollback record —
// the crash landed before the fault's abort record — recovers with the abort
// decision intact, and the abort record clears it.
func TestRecoverPendingAbort(t *testing.T) {
	steps := sampleSteps()
	plan := Record{T: "plan", Steps: steps}
	pending := []Record{plan,
		{T: "state", Step: 0, State: "copying"},
		{T: "state", Step: 0, State: "rolledback", Failed: []int{2}, Reason: "write failed"}}

	ck, err := Recover(pending)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.PendingAbort || ck.Aborted {
		t.Fatalf("checkpoint = %+v, want pending abort, not aborted", ck)
	}
	if len(ck.Failed) != 1 || ck.Failed[0] != 2 || ck.PendingAbortReason != "write failed" {
		t.Fatalf("pending abort lost the fault: failed=%v reason=%q", ck.Failed, ck.PendingAbortReason)
	}

	ck, err = Recover(append(pending, Record{T: "abort", Failed: []int{2}, Reason: "write failed"}))
	if err != nil {
		t.Fatal(err)
	}
	if ck.PendingAbort || !ck.Aborted {
		t.Fatalf("checkpoint = %+v, want aborted with no pending abort", ck)
	}
}

// FuzzJournalDecode asserts the decode and recovery paths never panic and
// classify arbitrary input as either a valid journal or ErrJournalCorrupt.
func FuzzJournalDecode(f *testing.F) {
	var buf bytes.Buffer
	jw := &journalWriter{w: &buf}
	scratch := ScratchSpec{Target: 3, Bytes: 8 << 20}
	_ = jw.append(Record{T: "plan", Steps: sampleSteps(), Scratch: &scratch})
	_ = jw.append(Record{T: "state", Step: 0, State: "copying"})
	_ = jw.append(Record{T: "progress", Step: 0, Done: 1 << 20})
	f.Add(buf.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("00000000 {}\n"))
	f.Add([]byte("deadbeef {\"t\":\"plan\"}\ntrailing garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := DecodeJournal(data)
		if err != nil {
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrJournalCorrupt", err)
			}
			return
		}
		if ck, err := Recover(records); err == nil {
			// A recoverable journal must be internally consistent.
			if len(ck.State) != len(ck.Steps) || len(ck.Progress) != len(ck.Steps) {
				t.Fatalf("checkpoint shape mismatch: %d steps, %d states", len(ck.Steps), len(ck.State))
			}
		} else if !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("recover error %v does not wrap ErrJournalCorrupt", err)
		}
	})
}
