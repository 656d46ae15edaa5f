package control

import (
	"testing"

	"dblayout/internal/migrate"
	"dblayout/internal/wal"
)

// FuzzControllerJournalDecode: Recover must never panic and never accept a
// journal whose recovered layout is inconsistent, whatever the bytes.
func FuzzControllerJournalDecode(f *testing.F) {
	valid := encodeJournalFuzz()
	f.Add(valid)
	f.Add(wal.TruncateTorn(valid[:len(valid)/2]))
	corrupted := append([]byte(nil), valid...)
	if len(corrupted) > 20 {
		corrupted[20] ^= 0x5a
	}
	f.Add(corrupted)
	f.Add([]byte(""))
	f.Add([]byte("deadbeef {\"t\":\"cbegin\"}\n"))
	f.Add([]byte("00000000 \n"))
	f.Add(mustEncodeJournal(testBegin(),
		Record{T: recPlan, Epoch: 1, Attempt: 1, Steps: testSteps(), Reason: "api",
			Copy: &CopyOptions{BytesPerSec: 1 << 20, ChunkBytes: 256, CheckpointBytes: 512, SyncEvery: 4}},
		segPlan(), segState(0, "copying"), migrate.Record{T: "progress", Step: 0, Done: 512},
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := Recover(data)
		if err != nil {
			return
		}
		if err := ck.Current.CheckIntegrity(); err != nil {
			t.Fatalf("accepted journal recovers inconsistent layout: %v", err)
		}
		if err := ck.Base.CheckIntegrity(); err != nil {
			t.Fatalf("accepted journal has inconsistent base layout: %v", err)
		}
		if ck.Attempt < 1 {
			t.Fatalf("accepted journal yields attempt %d", ck.Attempt)
		}
	})
}

// encodeJournalFuzz builds a valid one-epoch journal for fuzz seeding.
func encodeJournalFuzz() []byte {
	steps := testSteps()
	return mustEncodeJournal(
		Record{T: recBegin, N: 2, M: 2, Rows: [][]float64{{1, 0}, {0, 1}}, Seed: 9},
		Record{T: recPlan, Epoch: 1, Attempt: 1, Steps: steps, Reason: "fuzz"},
		segPlan(),
		segState(0, "copying"), segState(0, "copied"), segState(0, "committed"),
		segDone(),
		Record{T: recOutcome, Epoch: 1, Outcome: outcomeDone, Cooldown: 3},
	)
}
