package control

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dblayout/internal/layout"
	"dblayout/internal/migrate"
	"dblayout/internal/wal"
)

// The controller journal is one CRC-framed record stream (internal/wal)
// holding two record namespaces: controller records, whose type tags start
// with "c", and the migration engine's own records ("plan", "state",
// "progress", "abort", "done"), which the engine appends to the same writer
// while a migration epoch is open. One file therefore captures the whole
// loop — every decision and every byte-level migration transition — and a
// crash at any record resumes exactly-once from it.
//
// Record grammar (validated by Recover):
//
//	journal  := cbegin epoch*
//	epoch    := advise-fail | migration
//	advise-fail := cretry | cfail            (re-advise died before a plan)
//	migration := cplan migrate-records (coutcome (cretry | cfail)? )?
//
// A cplan opens epoch k (strictly increasing); the engine's records follow;
// coutcome closes the epoch as "done" or "aborted". An aborted outcome (or a
// failed re-advise) is followed by a cretry scheduling the next attempt, or
// by a cfail when the retry budget is spent. A journal may end anywhere — a
// crash — and Recover reconstructs the exact resume point. Journal is the one
// writer of the controller records, for the controller and the daemon alike.

// CopyOptions pins an epoch's engine copy options in its cplan, so a resumed
// engine copies the way the epoch was asked to. The daemon writes it; the
// controller leaves it unset (its engine options come from Config), and a
// cplan without it runs with the caller's engine options.
type CopyOptions struct {
	BytesPerSec     float64 `json:"bytes_per_sec,omitempty"`
	ChunkBytes      int64   `json:"chunk_bytes,omitempty"`
	CheckpointBytes int64   `json:"checkpoint_bytes,omitempty"`
	SyncEvery       int     `json:"sync_every,omitempty"`
}

// Controller record types.
const (
	recBegin   = "cbegin"
	recPlan    = "cplan"
	recOutcome = "coutcome"
	recRetry   = "cretry"
	recFail    = "cfail"
)

// Outcome values of a coutcome record.
const (
	outcomeDone    = "done"
	outcomeAborted = "aborted"
)

// Record is one controller journal entry.
type Record struct {
	// T is the record type: "cbegin", "cplan", "coutcome", "cretry",
	// "cfail".
	T string `json:"t"`

	// cbegin: the run identity — problem shape, starting layout, seed.
	N    int         `json:"n,omitempty"`
	M    int         `json:"m,omitempty"`
	Rows [][]float64 `json:"rows,omitempty"`
	Seed int64       `json:"seed,omitempty"`

	// cplan: a migration epoch opens.
	Epoch   int                  `json:"epoch,omitempty"`
	Attempt int                  `json:"attempt,omitempty"`
	Steps   []migrate.Step       `json:"steps,omitempty"`
	Scratch *migrate.ScratchSpec `json:"scratch,omitempty"`
	Reason  string               `json:"reason,omitempty"` // signal that triggered the re-advise
	Gain    float64              `json:"gain,omitempty"`   // predicted max-utilization gain
	Sources []int                `json:"sources,omitempty"`
	Copy    *CopyOptions         `json:"copy,omitempty"`

	// coutcome: the epoch closed.
	Outcome  string `json:"outcome,omitempty"`
	Cooldown int    `json:"cooldown,omitempty"`
	Failed   []int  `json:"failed,omitempty"`

	// cretry / cfail: the retry decision after a failure.
	Delay int    `json:"delay,omitempty"` // refit windows until the next attempt
	Cause string `json:"cause,omitempty"`
}

// Journal is the one owner of a controller journal's epoch records; the
// controller and the advisor daemon both run their migrations through it. It
// is the only code that appends controller records: each one is fsynced, and
// the owner's own state changes only once the record is durable. It numbers
// migration epochs from the journal and holds the open-epoch resume rule
// (Resume). Policy stays with the callers: when to plan, retry, give up or
// cool down, and what a failed append means.
type Journal struct {
	w         io.Writer
	epoch     int     // last epoch a cplan opened (0 before any)
	open      *Record // the open epoch's cplan, nil between epochs
	undecided bool    // an aborted epoch's cretry or cfail is not journaled yet
	failed    []int   // failed targets merged across aborted epochs
}

// Begin starts a journal on w with its cbegin record: the base layout and the
// run's seed. A nil w journals nothing (the run cannot be resumed).
func Begin(w io.Writer, base *layout.Layout, seed int64) (*Journal, error) {
	rows := make([][]float64, base.N)
	for i := range rows {
		rows[i] = base.Row(i)
	}
	j := &Journal{w: w}
	return j, j.append(Record{T: recBegin, N: base.N, M: base.M, Rows: rows, Seed: seed})
}

// Reopen recovers the durable bytes of a journal (after wal.TruncateTorn) and
// returns its owner, appending to w: the same journal opened for append.
func Reopen(w io.Writer, data []byte) (*Journal, *Checkpoint, error) {
	ck, err := Recover(data)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{w: w, epoch: ck.Epoch, undecided: ck.NeedRetryDecision, failed: ck.Failed}
	if ck.Open != nil {
		j.open = &ck.Open.Plan
	}
	return j, ck, nil
}

// Epoch returns the last epoch a cplan opened, 0 before any.
func (j *Journal) Epoch() int { return j.epoch }

// Failed returns the failed targets merged across the aborted epochs.
func (j *Journal) Failed() []int { return j.failed }

// Plan opens the next migration epoch: it journals p (the caller's attempt,
// steps, scratch, reason, gain and copy options) as a cplan stamped with the
// next epoch number and the journal's failed targets. The grammar allows no
// cplan while an epoch is open or an abort awaits its retry decision.
func (j *Journal) Plan(p Record) error {
	if j.open != nil || j.undecided {
		return fmt.Errorf("control: epoch %d is still open or awaits its retry decision", j.epoch)
	}
	p.T, p.Epoch, p.Sources = recPlan, j.epoch+1, append([]int(nil), j.failed...)
	if err := j.append(p); err != nil {
		return err
	}
	j.epoch, j.open = p.Epoch, &p
	return nil
}

// Engine builds the open epoch's migration engine over sim, from base (the
// layout the epoch migrates from) or, with ck set, resumed from a recovered
// engine checkpoint. The engine journals to the owner's writer and runs the
// cplan's steps with its scratch and copy options and the journal's failed
// targets as FailedSources; done receives its result. The caller starts it.
func (j *Journal) Engine(sim migrate.IO, base *layout.Layout, ck *migrate.Checkpoint, opt migrate.Options, done func(*migrate.Result)) (*migrate.Engine, error) {
	p := j.open
	opt.Journal, opt.Checkpoint = j.w, ck
	if p.Scratch != nil {
		opt.Scratch = *p.Scratch
	}
	if c := p.Copy; c != nil {
		opt.BytesPerSec, opt.ChunkBytes, opt.CheckpointBytes, opt.SyncEvery = c.BytesPerSec, c.ChunkBytes, c.CheckpointBytes, c.SyncEvery
	}
	opt.FailedSources = append([]int(nil), j.failed...)
	return migrate.NewEngine(sim, base, p.Steps, opt, done)
}

// Resume applies the open-epoch rule to the checkpoint Reopen recovered. With
// no epoch open it does nothing. When the open epoch's engine checkpoint
// already says done or aborted (the crash beat the outcome record), it
// reports that outcome to done and re-runs nothing. Otherwise it returns the
// epoch's engine restarted from the checkpoint (see Engine), for the caller
// to start.
func (j *Journal) Resume(ck *Checkpoint, sim migrate.IO, opt migrate.Options, done func(*migrate.Result)) (*migrate.Engine, error) {
	open := ck.Open
	if open == nil {
		return nil, nil
	}
	mck := open.Checkpoint
	if mck == nil || !(mck.Done || mck.Aborted) {
		eng, err := j.Engine(sim, ck.Current, mck, opt, done)
		if err != nil {
			return nil, fmt.Errorf("control: resuming epoch %d: %w", open.Plan.Epoch, err)
		}
		return eng, nil
	}
	res := &migrate.Result{Done: mck.Done, Aborted: mck.Aborted, FailedTargets: mck.Failed,
		Committed: mck.CommittedSteps(), CommittedBytes: mck.CommittedBytes(), Layout: ck.Current.Clone()}
	mck.ApplyCommitted(res.Layout)
	if mck.Aborted {
		res.Err = fmt.Errorf("resumed after abort, targets %v failed", mck.Failed)
	}
	done(res)
	return nil, nil
}

// Outcome closes the open epoch with its engine's result, which must be done
// or aborted: a done coutcome carries the caller's cooldown, an aborted one
// the failed targets, which join the journal's failed set.
func (j *Journal) Outcome(res *migrate.Result, cooldown int) error {
	r := Record{T: recOutcome, Epoch: j.epoch, Outcome: outcomeDone, Cooldown: cooldown}
	if res.Aborted {
		r = Record{T: recOutcome, Epoch: j.epoch, Outcome: outcomeAborted, Failed: res.FailedTargets}
	}
	if err := j.append(r); err != nil {
		return err
	}
	j.open, j.undecided = nil, res.Aborted
	if res.Aborted {
		j.failed = mergeFailed(j.failed, res.FailedTargets)
	}
	return nil
}

// Retry journals a retry decision: attempt runs after delay refit windows.
func (j *Journal) Retry(attempt, delay int, cause error) error {
	return j.decide(Record{T: recRetry, Epoch: j.epoch, Attempt: attempt, Delay: delay, Cause: fmt.Sprint(cause)})
}

// Fail journals the terminal failure of attempt: no retry follows.
func (j *Journal) Fail(attempt int, cause error) error {
	return j.decide(Record{T: recFail, Attempt: attempt, Cause: fmt.Sprint(cause)})
}

func (j *Journal) decide(r Record) error {
	if err := j.append(r); err != nil {
		return err
	}
	j.undecided = false
	return nil
}

// append journals one controller record, CRC-framed and fsynced: every
// controller record is a commit point.
func (j *Journal) append(r Record) error {
	if j.w == nil {
		return nil
	}
	body, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := wal.Append(j.w, body); err != nil {
		return err
	}
	return wal.Sync(j.w)
}

// typeTag is the minimal decode that routes a frame to its namespace.
type typeTag struct {
	T string `json:"t"`
}

// DecodeRecordBody parses one CRC-validated frame body into a controller
// Record, rejecting unknown fields and unknown record types. The returned
// *CorruptError has Record 0; callers that know the frame index fill it in.
func DecodeRecordBody(body []byte) (Record, error) {
	var rec Record
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return Record{}, &CorruptError{Reason: fmt.Sprintf("bad JSON body: %v", err)}
	}
	switch rec.T {
	case recBegin, recPlan, recOutcome, recRetry, recFail:
	default:
		return Record{}, &CorruptError{Reason: fmt.Sprintf("unknown record type %q", rec.T)}
	}
	return rec, nil
}

// entry is one decoded journal frame: exactly one of ctrl/mig is meaningful.
type entry struct {
	idx  int
	ctrl *Record
	mig  *migrate.Record
}

// decodeEntries splits journal bytes into the interleaved controller and
// migration records. A torn final line is ignored; any other malformation
// returns a *CorruptError wrapping ErrControllerCorrupt. It never panics,
// regardless of input.
func decodeEntries(data []byte) ([]entry, error) {
	frames, err := wal.Frames(data)
	if err != nil {
		var fe *wal.FrameError
		if errors.As(err, &fe) {
			return nil, &CorruptError{Record: fe.Index, Reason: fe.Reason}
		}
		return nil, &CorruptError{Reason: err.Error()}
	}
	out := make([]entry, 0, len(frames))
	for i, body := range frames {
		var tag typeTag
		if err := json.Unmarshal(body, &tag); err != nil {
			return nil, &CorruptError{Record: i, Reason: fmt.Sprintf("bad JSON body: %v", err)}
		}
		if len(tag.T) > 0 && tag.T[0] == 'c' {
			rec, err := DecodeRecordBody(body)
			if err != nil {
				var ce *CorruptError
				if errors.As(err, &ce) {
					ce.Record = i
				}
				return nil, err
			}
			out = append(out, entry{idx: i, ctrl: &rec})
			continue
		}
		mrec, err := migrate.DecodeRecordBody(body)
		if err != nil {
			return nil, &CorruptError{Record: i, Reason: fmt.Sprintf("migration record: %v", err)}
		}
		out = append(out, entry{idx: i, mig: &mrec})
	}
	return out, nil
}

// RetryState is a pending cretry: the attempt it schedules and the backoff
// it chose.
type RetryState struct {
	Attempt int // the attempt number the retry will run
	Delay   int // refit windows of backoff chosen at journal time
	Cause   string
}

// OpenEpoch is a migration epoch whose coutcome is missing — the crash
// happened mid-migration (or between the engine finishing and the outcome
// record landing).
type OpenEpoch struct {
	// Plan is the cplan record that opened the epoch.
	Plan Record
	// Segment holds the engine's own records within the epoch, in order.
	Segment []migrate.Record
	// Checkpoint is the recovered engine state, nil when the crash landed
	// before the engine journaled anything (the epoch restarts fresh).
	Checkpoint *migrate.Checkpoint
}

// Checkpoint is the durable controller state recovered from a journal: where
// the loop was when the crash hit, and the exact layout implied by every
// committed migration step.
type Checkpoint struct {
	N, M int
	Seed int64
	// Base is the layout journaled at cbegin.
	Base *layout.Layout
	// Current is Base plus the committed steps of every closed epoch — the
	// layout an open epoch (if any) migrates from.
	Current *layout.Layout
	// Epoch is the last epoch a cplan opened (0 before any).
	Epoch int
	// Attempt is the attempt number the next try must carry: the open
	// epoch's attempt, a pending retry's attempt, or 1.
	Attempt int
	// Failed is the merged set of failed targets across all aborts.
	Failed []int
	// Open is the epoch in flight at the crash, nil when none.
	Open *OpenEpoch
	// Retry is a cretry whose attempt has not produced a cplan yet.
	Retry *RetryState
	// Cooling reports that the journal ends right after a successful
	// epoch: the controller was inside its post-migration cooldown.
	// The countdown itself is not journaled; resuming restarts it in full
	// (conservative, documented in DESIGN.md).
	Cooling bool
	// NeedRetryDecision reports that the journal ends right after an
	// aborted outcome whose retry decision (cretry or cfail) did not land
	// before the crash. The decision is deterministic given the journal,
	// so the resuming controller re-makes exactly it.
	NeedRetryDecision bool
}

// Recover replays decoded journal entries into a Checkpoint, validating that
// the sequence is one the controller could have produced. Violations return
// a *CorruptError wrapping ErrControllerCorrupt.
func Recover(data []byte) (*Checkpoint, error) {
	entries, err := decodeEntries(data)
	if err != nil {
		return nil, err
	}
	corrupt := func(idx int, format string, args ...interface{}) (*Checkpoint, error) {
		return nil, &CorruptError{Record: idx, Reason: fmt.Sprintf(format, args...)}
	}
	if len(entries) == 0 {
		return corrupt(0, "journal is empty (no cbegin record)")
	}

	var ck *Checkpoint
	var open *OpenEpoch
	needDecision := false // last record was coutcome(aborted); cretry/cfail must follow
	for _, e := range entries {
		if ck == nil {
			if e.ctrl == nil || e.ctrl.T != recBegin {
				return corrupt(e.idx, "journal must start with cbegin")
			}
			b := e.ctrl
			if b.N <= 0 || b.M <= 0 || len(b.Rows) != b.N {
				return corrupt(e.idx, "cbegin declares %dx%d but carries %d rows", b.N, b.M, len(b.Rows))
			}
			base := layout.New(b.N, b.M)
			for i, row := range b.Rows {
				if len(row) != b.M {
					return corrupt(e.idx, "cbegin row %d has %d targets, want %d", i, len(row), b.M)
				}
				base.SetRow(i, row)
			}
			if err := base.CheckIntegrity(); err != nil {
				return corrupt(e.idx, "cbegin layout: %v", err)
			}
			ck = &Checkpoint{
				N: b.N, M: b.M, Seed: b.Seed,
				Base: base, Current: base.Clone(), Attempt: 1,
			}
			continue
		}

		if e.mig != nil {
			if open == nil {
				return corrupt(e.idx, "migration record %q outside an open epoch", e.mig.T)
			}
			open.Segment = append(open.Segment, *e.mig)
			continue
		}

		r := e.ctrl
		switch r.T {
		case recBegin:
			return corrupt(e.idx, "second cbegin record")
		case recPlan:
			if open != nil {
				return corrupt(e.idx, "cplan for epoch %d while epoch %d is open", r.Epoch, open.Plan.Epoch)
			}
			if needDecision {
				return corrupt(e.idx, "cplan before the retry decision of aborted epoch %d", ck.Epoch)
			}
			if r.Epoch != ck.Epoch+1 {
				return corrupt(e.idx, "cplan epoch %d after epoch %d", r.Epoch, ck.Epoch)
			}
			if r.Attempt != ck.Attempt {
				return corrupt(e.idx, "cplan attempt %d, expected %d", r.Attempt, ck.Attempt)
			}
			if len(r.Steps) == 0 {
				return corrupt(e.idx, "cplan with no steps")
			}
			ck.Epoch = r.Epoch
			ck.Retry = nil
			ck.Cooling = false
			open = &OpenEpoch{Plan: *r}
		case recOutcome:
			if open == nil {
				return corrupt(e.idx, "coutcome with no open epoch")
			}
			if r.Epoch != open.Plan.Epoch {
				return corrupt(e.idx, "coutcome for epoch %d, open epoch is %d", r.Epoch, open.Plan.Epoch)
			}
			mck, err := recoverSegment(open, e.idx)
			if err != nil {
				return nil, err
			}
			if mck == nil {
				return corrupt(e.idx, "coutcome for an epoch with no migration records")
			}
			switch r.Outcome {
			case outcomeDone:
				if !mck.Done {
					return corrupt(e.idx, "outcome done but the migration segment is not")
				}
				ck.Attempt = 1
				ck.Cooling = true
			case outcomeAborted:
				if !mck.Aborted {
					return corrupt(e.idx, "outcome aborted but the migration segment is not")
				}
				ck.Failed = mergeFailed(ck.Failed, r.Failed)
				needDecision = true
			default:
				return corrupt(e.idx, "unknown outcome %q", r.Outcome)
			}
			mck.ApplyCommitted(ck.Current)
			if err := ck.Current.CheckIntegrity(); err != nil {
				return corrupt(e.idx, "layout after epoch %d: %v", r.Epoch, err)
			}
			open = nil
		case recRetry:
			if open != nil {
				return corrupt(e.idx, "cretry while epoch %d is open", open.Plan.Epoch)
			}
			if r.Attempt != ck.Attempt+1 {
				return corrupt(e.idx, "cretry schedules attempt %d after attempt %d", r.Attempt, ck.Attempt)
			}
			if r.Delay < 0 {
				return corrupt(e.idx, "cretry with negative delay %d", r.Delay)
			}
			ck.Attempt = r.Attempt
			ck.Retry = &RetryState{Attempt: r.Attempt, Delay: r.Delay, Cause: r.Cause}
			ck.Cooling = false
			needDecision = false
		case recFail:
			if open != nil {
				return corrupt(e.idx, "cfail while epoch %d is open", open.Plan.Epoch)
			}
			// A give-up enters cooldown, exactly as the live path does.
			ck.Attempt = 1
			ck.Retry = nil
			ck.Cooling = true
			needDecision = false
		}
	}

	ck.NeedRetryDecision = needDecision
	if open != nil {
		mck, err := recoverSegment(open, len(entries))
		if err != nil {
			return nil, err
		}
		open.Checkpoint = mck
		ck.Open = open
	}
	return ck, nil
}

// recoverSegment validates an epoch's embedded migration records against the
// epoch's plan and returns the engine checkpoint (nil for an empty segment).
func recoverSegment(open *OpenEpoch, idx int) (*migrate.Checkpoint, error) {
	if len(open.Segment) == 0 {
		return nil, nil
	}
	mck, err := migrate.Recover(open.Segment)
	if err != nil {
		return nil, &CorruptError{Record: idx, Reason: fmt.Sprintf("epoch %d migration segment: %v", open.Plan.Epoch, err)}
	}
	if len(mck.Steps) != len(open.Plan.Steps) {
		return nil, &CorruptError{Record: idx, Reason: fmt.Sprintf("epoch %d engine plans %d steps, cplan has %d",
			open.Plan.Epoch, len(mck.Steps), len(open.Plan.Steps))}
	}
	for i := range mck.Steps {
		if mck.Steps[i] != open.Plan.Steps[i] {
			return nil, &CorruptError{Record: idx, Reason: fmt.Sprintf("epoch %d engine step %d diverges from cplan",
				open.Plan.Epoch, i)}
		}
	}
	return mck, nil
}

// mergeFailed merges newly failed targets into the sorted, deduplicated set.
func mergeFailed(have, add []int) []int {
	out := append([]int(nil), have...)
	for _, j := range add {
		seen := false
		for _, k := range out {
			if k == j {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, j)
		}
	}
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k] < out[k-1]; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}
