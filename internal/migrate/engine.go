package migrate

import (
	"fmt"
	"io"
	"strings"

	"dblayout/internal/layout"
	"dblayout/internal/obs"
)

// IO is the simulation surface the engine drives. *replay.BackgroundIO
// satisfies it; tests substitute deterministic fakes.
type IO interface {
	// Now returns the current simulated time in seconds.
	Now() float64
	// After schedules fn to run delay simulated seconds from now.
	After(delay float64, fn func())
	// Devices returns the number of storage targets.
	Devices() int
	// DeviceName returns the name of target j.
	DeviceName(j int) string
	// Capacity returns the capacity of target j in bytes.
	Capacity(j int) int64
	// QueueDepth returns the number of requests waiting on target j.
	QueueDepth(j int) int
	// NewStream allocates a logical stream identifier for sequential I/O.
	NewStream() uint64
	// Submit issues one block request; done receives true when the
	// request failed because the device had failed.
	Submit(dev, obj int, stream uint64, off, size int64, write bool, done func(failed bool))
}

// Options configures a migration run.
type Options struct {
	// BytesPerSec throttles the background copy rate (0 = unthrottled).
	BytesPerSec float64
	// MaxQueueShare bounds the copy stream's share of a device queue: a
	// chunk is deferred while either endpoint's queue is deeper than
	// share/(1-share) outstanding requests. 0 defaults to 0.5 (copy I/O
	// never outnumbers foreground I/O); 1 disables gating.
	MaxQueueShare float64
	// ChunkBytes is the copy granularity (default 1 MiB).
	ChunkBytes int64
	// CheckpointBytes is the journaling granularity for copy progress
	// within a step (default 16 MiB). Smaller values lose less work to a
	// crash at the cost of more journal records.
	CheckpointBytes int64
	// Scratch is the staging reservation BuildScript may use to break
	// capacity cycles.
	Scratch ScratchSpec
	// Journal receives write-ahead records. A nil journal still executes
	// correctly but cannot be resumed after a crash. When the writer is
	// sync-capable (implements Sync() error, e.g. *os.File) every
	// transition record (plan, state, abort, done) is fsynced before its
	// transition applies: before a chunk is submitted, a step is applied
	// to the layout and counted in the Result, or the done callback runs.
	// Records with none of these between them share one fsync: the plan
	// with the first step's copying record; a step's copied and committed
	// records with the next step's copying record or with done; a rollback
	// with its abort. A failed fsync is a crash that applies nothing.
	Journal io.Writer
	// SyncEvery batches journal fsyncs of progress records: up to
	// SyncEvery-1 consecutive progress records may stay unsynced before a
	// sync is forced (0 or 1 syncs after every record). Losing a progress
	// record only costs a recopy from the previous durable mark; transition
	// records do not batch this way (see Journal).
	SyncEvery int
	// Resume holds the contents of a prior journal for crash recovery.
	// Execute decodes and recovers it, verifies the script matches, and
	// continues from the checkpoint, appending new records to Journal —
	// which should therefore be the same journal opened for append.
	Resume []byte
	// Checkpoint resumes an engine directly from recovered state
	// (normally set by Execute from Resume).
	Checkpoint *Checkpoint
	// FailedSources lists targets known to have failed. Steps reading
	// from them skip the source read and model reconstruction from
	// redundancy or backup as a destination-only write. Used when
	// executing a repair plan, whose moves source from dead targets.
	FailedSources []int
	// MapperLayout, when set, is the regular layout used to place
	// foreground I/O during Execute. It exists because a migration's
	// `current` layout may be non-regular mid-plan (after an abort), but
	// the volume mapper needs a regular one. Defaults to `current`.
	MapperLayout *layout.Layout
	// Metrics, when non-nil, receives migration_* counters, gauges and
	// histograms.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = 1 << 20
	}
	if o.CheckpointBytes <= 0 {
		o.CheckpointBytes = 16 << 20
	}
	if o.MaxQueueShare == 0 {
		o.MaxQueueShare = 0.5
	}
	return o
}

// Result reports how a migration run ended. Exactly one of Done, Aborted or
// Crashed is set; Layout is always the consistent layout implied by the
// journal (base plus committed steps).
type Result struct {
	Steps     []Step
	State     []StepState // final state of every step
	Committed int         // steps committed over the whole migration (including before a resume)
	// CommittedBytes counts each committed step's bytes exactly once
	// across all runs of the migration — the "no lost or double-counted
	// bytes" invariant crash tests assert on.
	CommittedBytes int64
	// DeviceBytes counts device I/O issued by this run only (reads +
	// writes, including any recopied span after a resume).
	DeviceBytes int64
	// ReconstructedBytes counts destination writes whose source read was
	// skipped because the source target had failed.
	ReconstructedBytes int64
	JournalRecords     int // records this run appended
	Done               bool
	Aborted            bool
	Crashed            bool
	FailedTargets      []int
	Err                error // detail for Aborted (AbortError) or Crashed
	Start, End         float64
	Elapsed            float64
	Layout             *layout.Layout
}

// Engine executes a migration script against a live simulation, one step at
// a time, one chunk in flight. Every state transition is journaled, and
// synced, before it takes effect (see Options.Journal); see Checkpoint for
// the resume semantics.
type Engine struct {
	io    IO
	steps []Step
	opt   Options
	jw    *journalWriter

	state    []StepState
	progress []int64 // copied bytes per step (authoritative for the live run)
	ckMark   int64   // last journaled progress for the current step
	cur      int
	// committing is the step whose committed record awaits the sync it
	// shares with the next step's copying record or with done; the step
	// applies once that sync succeeds. -1 when none.
	committing int

	layout      *layout.Layout
	sizes       []int64 // each object's full size, from the script
	scriptBytes int64   // ScriptBytes(steps)
	writeBase   int64   // destination write offset base for the current step
	readStream  uint64
	wrStream    uint64

	throttleAt float64 // simulated time the next chunk's tokens are available
	chunkStart float64
	gateDepth  int    // max tolerated queue depth, -1 = no gating
	failedSrc  []bool // per device: its reads are skipped (FailedSources)

	// The one chunk in flight: its size, endpoints and write offset.
	chunk    int64
	src, dst int
	writeOff int64

	// The per-chunk callbacks, bound once so that a chunk allocates
	// nothing: issue (the throttle and queue-gate retries), read done and
	// write done.
	issueFn   func()
	readDone  func(failed bool)
	writeDone func(failed bool)

	// pendingAbort, when non-nil, holds the failed targets of an abort
	// decision recovered from a rollback record whose abort record the
	// crash swallowed; Start completes it before any other work.
	pendingAbort       []int
	pendingAbortReason string

	stopped bool
	res     Result
	onDone  func(*Result)

	copied int64 // bytes written to destinations this run (series feed)

	mCommitted    *obs.Counter
	mBytes        *obs.Counter
	mDeviceBytes  *obs.Counter
	mRecon        *obs.Counter
	mAborts       *obs.Counter
	mJournal      *obs.Counter
	mProgress     *obs.Gauge
	mState        *obs.Gauge
	mStep         *obs.Gauge
	mRate         *obs.Gauge
	mETA          *obs.Gauge
	mCopied       *obs.Series
	mChunkLatency *obs.Histogram
	mMoveBytes    *obs.Histogram
}

// migration_state gauge values: the engine's lifecycle as a scrapeable enum.
const (
	stateIdle    = 0
	stateRunning = 1
	stateDone    = 2
	stateAborted = 3
	stateCrashed = 4
)

// gatePoll is how long (simulated seconds) a queue-gated chunk waits before
// re-checking the device queues.
const gatePoll = 2e-3

// NewEngine prepares an engine over sim for the given script, starting from
// base (the layout before any uncommitted work) or, when opt.Checkpoint is
// set, from the recovered state. done is invoked exactly once with the
// result when the migration completes, aborts, or crashes.
func NewEngine(sim IO, base *layout.Layout, steps []Step, opt Options, done func(*Result)) (*Engine, error) {
	opt = opt.withDefaults()
	if opt.MaxQueueShare < 0 || opt.MaxQueueShare > 1 {
		return nil, fmt.Errorf("migrate: MaxQueueShare %g outside [0,1]", opt.MaxQueueShare)
	}
	if err := validateSteps(steps); err != nil {
		return nil, fmt.Errorf("migrate: bad script: %w", err)
	}
	for i, s := range steps {
		if s.Move.Object >= base.N || s.Move.From >= base.M || s.Move.To >= base.M {
			return nil, fmt.Errorf("migrate: step %d (%+v) outside %dx%d layout", i, s.Move, base.N, base.M)
		}
		if s.Move.From >= sim.Devices() || s.Move.To >= sim.Devices() {
			return nil, fmt.Errorf("migrate: step %d references device %d of %d", i, s.Move.To, sim.Devices())
		}
	}
	e := &Engine{
		io:          sim,
		steps:       steps,
		opt:         opt,
		jw:          &journalWriter{w: opt.Journal, syncEvery: opt.SyncEvery},
		state:       make([]StepState, len(steps)),
		progress:    make([]int64, len(steps)),
		committing:  -1,
		layout:      base.Clone(),
		sizes:       make([]int64, base.N),
		scriptBytes: ScriptBytes(steps),
		gateDepth:   -1,
		failedSrc:   make([]bool, sim.Devices()),
		onDone:      done,
	}
	e.issueFn, e.readDone, e.writeDone = e.issueChunk, e.chunkRead, e.chunkWritten
	if opt.MaxQueueShare < 1 {
		e.gateDepth = int(opt.MaxQueueShare / (1 - opt.MaxQueueShare))
	}
	for _, j := range opt.FailedSources {
		if j >= 0 && j < len(e.failedSrc) {
			e.failedSrc[j] = true
		}
	}
	// An object's size is implied by the first step that moves a positive
	// fraction of it.
	for i := len(steps) - 1; i >= 0; i-- {
		if m := steps[i].Move; m.Fraction > 0 {
			e.sizes[m.Object] = int64(float64(m.Bytes) / m.Fraction)
		}
	}
	if ck := opt.Checkpoint; ck != nil {
		if ck.Aborted {
			return nil, fmt.Errorf("migrate: journal records an abort; aborted migrations are replanned, not resumed: %w", ErrMigrationAborted)
		}
		if len(ck.State) != len(steps) {
			return nil, fmt.Errorf("migrate: checkpoint covers %d steps, script has %d", len(ck.State), len(steps))
		}
		if ck.PendingAbort {
			e.pendingAbort = append([]int{}, ck.Failed...)
			e.pendingAbortReason = ck.PendingAbortReason
			if e.pendingAbortReason == "" {
				e.pendingAbortReason = "device fault (recovered rollback)"
			}
		}
		copy(e.state, ck.State)
		copy(e.progress, ck.Progress)
		for i, st := range e.state {
			if st == StateCommitted {
				applyStep(e.layout, steps[i])
				e.res.Committed++
				e.res.CommittedBytes += steps[i].Move.Bytes
			}
		}
	}
	if r := opt.Metrics; r != nil {
		e.mCommitted = r.Counter(obs.Name("migration_committed_moves_total"))
		e.mBytes = r.Counter(obs.Name("migration_committed_bytes_total"))
		e.mDeviceBytes = r.Counter(obs.Name("migration_device_bytes_total"))
		e.mRecon = r.Counter(obs.Name("migration_reconstructed_bytes_total"))
		e.mAborts = r.Counter(obs.Name("migration_aborts_total"))
		e.mJournal = r.Counter(obs.Name("migration_journal_records_total"))
		e.mProgress = r.Gauge(obs.Name("migration_progress_ratio"))
		e.mState = r.Gauge(obs.Name("migration_state"))
		e.mStep = r.Gauge(obs.Name("migration_current_step"))
		e.mRate = r.Gauge(obs.Name("migration_copy_rate_bytes_per_second"))
		e.mETA = r.Gauge(obs.Name("migration_eta_seconds"))
		e.mCopied = r.Series(obs.Name("migration_copied_bytes"), 0)
		e.mChunkLatency = r.Histogram(obs.Name("migration_chunk_latency_seconds"), obs.LatencyBuckets())
		e.mMoveBytes = r.Histogram(obs.Name("migration_move_bytes"), obs.ByteBuckets())
		e.mState.Set(stateIdle)
	}
	return e, nil
}

// Start begins (or resumes) execution. For a fresh run it journals the plan
// record first; a resumed run appends to a journal that already has one.
func (e *Engine) Start() {
	e.res.Start = e.io.Now()
	e.res.Steps = e.steps
	e.mState.Set(stateRunning)
	if e.opt.Checkpoint == nil {
		scratch := e.opt.Scratch
		if !e.journal(Record{T: "plan", Steps: e.steps, Scratch: &scratch}) {
			return
		}
	} else if e.pendingAbort != nil {
		// The previous run decided to abort (it rolled a step back on a
		// device fault) but crashed before the abort record. Complete
		// that decision now, exactly once.
		e.completeAbort(e.pendingAbort, e.pendingAbortReason)
		return
	}
	e.next()
}

// next advances to the first step that still needs work. A step that starts
// copying journals its copying record; the sync that covers it (shared with
// the plan, or with the previous step's copied and committed records) runs
// before the step's first chunk.
func (e *Engine) next() {
	if e.stopped {
		return
	}
	for e.cur < len(e.steps) && (e.state[e.cur] == StateCommitted || e.state[e.cur] == StateRolledBack) {
		e.cur++
	}
	if e.cur >= len(e.steps) {
		e.complete()
		return
	}
	e.mStep.Set(float64(e.cur))
	e.readStream = e.io.NewStream()
	e.wrStream = e.io.NewStream()
	e.ckMark = e.progress[e.cur]
	st := e.state[e.cur]
	if st == StatePlanned && !e.journal(Record{T: "state", Step: e.cur, State: StateCopying.String()}) {
		return
	}
	if !e.sync() {
		return
	}
	e.writeBase = e.occupied(e.steps[e.cur].Move.To)
	switch st {
	case StatePlanned:
		e.state[e.cur] = StateCopying
		e.copyLoop()
	case StateCopying:
		// Resumed mid-copy: the copy restarts at the last journaled
		// progress mark; anything past it was not durable.
		e.copyLoop()
	case StateCopied:
		// Resumed after the copy finished but before the commit record:
		// re-commit without recopying.
		e.commit()
	}
}

// occupied returns target j's committed byte occupancy, the base offset new
// copies write at.
func (e *Engine) occupied(j int) int64 {
	var b int64
	for i := 0; i < e.layout.N; i++ {
		b += int64(e.layout.At(i, j) * float64(e.sizes[i]))
	}
	return b
}

// copyLoop issues the next chunk of the current step, honouring the
// byte-rate throttle, or finishes the copy phase when all bytes are moved.
func (e *Engine) copyLoop() {
	if e.stopped {
		return
	}
	m := e.steps[e.cur].Move
	if e.progress[e.cur] >= m.Bytes {
		if !e.journal(Record{T: "state", Step: e.cur, State: StateCopied.String()}) {
			return
		}
		e.state[e.cur] = StateCopied
		e.commit()
		return
	}
	e.chunk = min(e.opt.ChunkBytes, m.Bytes-e.progress[e.cur])
	e.src, e.dst = m.From, m.To
	now := e.io.Now()
	at := now
	if e.opt.BytesPerSec > 0 {
		if e.throttleAt < now {
			e.throttleAt = now
		}
		at = e.throttleAt
		e.throttleAt += float64(e.chunk) / e.opt.BytesPerSec
	}
	if at > now {
		e.io.After(at-now, e.issueFn)
	} else {
		e.issueChunk()
	}
}

// issueChunk performs one read-then-write chunk copy, deferring while either
// endpoint's queue is busier than the configured share allows.
func (e *Engine) issueChunk() {
	if e.stopped {
		return
	}
	src, dst := e.src, e.dst
	if e.gateDepth >= 0 && (e.io.QueueDepth(src) > e.gateDepth || e.io.QueueDepth(dst) > e.gateDepth) {
		e.io.After(gatePoll, e.issueFn)
		return
	}
	readOff := clampOffset(e.progress[e.cur], e.chunk, e.io.Capacity(src))
	e.writeOff = clampOffset(e.writeBase+e.progress[e.cur], e.chunk, e.io.Capacity(dst))
	e.chunkStart = e.io.Now()
	if e.failedSrc[src] {
		// The source is gone: model reconstruction from redundancy or
		// backup as a destination-only write.
		e.res.ReconstructedBytes += e.chunk
		e.mRecon.Add(e.chunk)
		e.io.Submit(dst, e.steps[e.cur].Move.Object, e.wrStream, e.writeOff, e.chunk, true, e.writeDone)
		return
	}
	e.io.Submit(src, e.steps[e.cur].Move.Object, e.readStream, readOff, e.chunk, false, e.readDone)
}

// chunkRead writes the chunk just read to the destination.
func (e *Engine) chunkRead(failed bool) {
	if e.stopped {
		return
	}
	if failed {
		e.fault(e.src, "source read failed")
		return
	}
	e.res.DeviceBytes += e.chunk
	e.io.Submit(e.dst, e.steps[e.cur].Move.Object, e.wrStream, e.writeOff, e.chunk, true, e.writeDone)
}

func clampOffset(off, size, capacity int64) int64 {
	if max := capacity - size; off > max && max >= 0 {
		return max
	}
	if off < 0 {
		return 0
	}
	return off
}

func (e *Engine) chunkWritten(failed bool) {
	if e.stopped {
		return
	}
	if failed {
		e.fault(e.dst, "destination write failed")
		return
	}
	chunk := e.chunk
	e.res.DeviceBytes += chunk
	e.mDeviceBytes.Add(chunk)
	e.mChunkLatency.Observe(e.io.Now() - e.chunkStart)
	e.progress[e.cur] += chunk
	e.copied += chunk
	e.mCopied.Record(e.io.Now(), float64(e.copied))
	if rate := e.mCopied.Rate(); rate > 0 {
		e.mRate.Set(rate)
		remain := e.scriptBytes - e.res.CommittedBytes - e.progress[e.cur]
		if remain < 0 {
			remain = 0
		}
		e.mETA.Set(float64(remain) / rate)
	}
	if e.progress[e.cur]-e.ckMark >= e.opt.CheckpointBytes && e.progress[e.cur] < e.steps[e.cur].Move.Bytes {
		if !e.journal(Record{T: "progress", Step: e.cur, Done: e.progress[e.cur]}) {
			return
		}
		e.ckMark = e.progress[e.cur]
	}
	e.copyLoop()
}

// commit journals the step's committed record and moves on. The step applies
// (to the layout and to the Result) in sync, once the sync it shares with
// the next step's copying record or with done has succeeded.
func (e *Engine) commit() {
	if !e.journal(Record{T: "state", Step: e.cur, State: StateCommitted.String()}) {
		return
	}
	e.committing = e.cur
	e.cur++
	e.next()
}

// sync makes the transition records appended since the last sync durable,
// then applies the commit that waited for them, if any. A failed sync is a
// crash that applies nothing. Returns false when the engine crashed.
func (e *Engine) sync() bool {
	if err := e.jw.sync(); err != nil {
		e.crash(err)
		return false
	}
	i := e.committing
	if i < 0 {
		return true
	}
	e.committing = -1
	s := e.steps[i]
	e.state[i] = StateCommitted
	applyStep(e.layout, s)
	e.res.Committed++
	e.res.CommittedBytes += s.Move.Bytes
	e.mCommitted.Inc()
	e.mBytes.Add(s.Move.Bytes)
	e.mMoveBytes.Observe(float64(s.Move.Bytes))
	e.mProgress.Set(float64(e.res.CommittedBytes) / float64(e.scriptBytes))
	return true
}

// fault reacts to a failed device: the in-flight step rolls back (its
// partial destination copy is abandoned; the source copy, if the source
// survives, remains authoritative), the abort is journaled, and the engine
// stops in a consistent layout for RecommendRepair to replan from. The
// rollback record carries the failed targets so a crash between it and the
// abort record can still complete the abort on resume — without that, the
// resume would skip the rolled-back step and a repeatedly faulting device
// could turn an abort into a silent no-op "done".
func (e *Engine) fault(dev int, reason string) {
	if e.state[e.cur] == StateCopying {
		if !e.journal(Record{T: "state", Step: e.cur, State: StateRolledBack.String(),
			Failed: []int{dev}, Reason: reason}) {
			return
		}
		e.state[e.cur] = StateRolledBack
		e.progress[e.cur] = 0
	}
	e.completeAbort([]int{dev}, reason)
}

// completeAbort journals the abort record and finishes the migration as
// aborted. Called from fault and from a resume whose checkpoint rolled a step
// back but crashed before this record landed.
func (e *Engine) completeAbort(failed []int, reason string) {
	if !e.journal(Record{T: "abort", Failed: failed, Reason: reason}) || !e.sync() {
		return
	}
	names := make([]string, len(failed))
	for i, dev := range failed {
		names[i] = e.io.DeviceName(dev)
	}
	e.res.Aborted = true
	e.res.FailedTargets = failed
	e.res.Err = &AbortError{Failed: failed, Reason: fmt.Sprintf("%s (%s)", reason, strings.Join(names, ", "))}
	e.mAborts.Inc()
	e.finish()
}

func (e *Engine) complete() {
	if !e.journal(Record{T: "done"}) || !e.sync() {
		return
	}
	e.res.Done = true
	e.finish()
}

// journal appends one record, treating any write failure as a crash: the
// engine stops immediately without applying the transition the record
// announced. Returns false when the engine crashed.
func (e *Engine) journal(r Record) bool {
	if err := e.jw.append(r); err != nil {
		e.crash(err)
		return false
	}
	if e.jw.w != nil {
		e.res.JournalRecords++
		e.mJournal.Inc()
	}
	return true
}

// crash stops the engine on a failed journal write or sync.
func (e *Engine) crash(err error) {
	e.res.Crashed = true
	e.res.Err = fmt.Errorf("migrate: journal write failed: %w", err)
	e.finish()
}

// finish freezes the result and reports it. Idempotent.
func (e *Engine) finish() {
	if e.stopped {
		return
	}
	e.stopped = true
	e.res.End = e.io.Now()
	e.res.Elapsed = e.res.End - e.res.Start
	switch {
	case e.res.Done:
		e.mState.Set(stateDone)
		e.mETA.Set(0)
	case e.res.Aborted:
		e.mState.Set(stateAborted)
	case e.res.Crashed:
		e.mState.Set(stateCrashed)
	}
	e.res.Layout = e.layout.Clone()
	e.res.State = append([]StepState(nil), e.state...)
	if e.onDone != nil {
		e.onDone(&e.res)
	}
}

// Result returns the result so far; definitive once the engine has stopped.
func (e *Engine) Result() *Result { return &e.res }
