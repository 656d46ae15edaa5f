// Package control implements the autonomic control loop the paper's Sec. 7
// sketches as future work: Observe → Detect → Re-advise → Migrate → Cooldown,
// running unattended against a live (simulated) storage system. It composes
// the existing pieces — the windowed workload fitter (rubicon.Windowed), the
// drift detector (obs.Detector), the layout advisor (core), and the online
// migration engine (migrate) — into one crash-safe state machine.
//
// Robustness is the point. Every decision is journaled through the CRC-framed
// write-ahead protocol of internal/wal before it takes effect, in the same
// file the migration engine journals its step transitions to, so a crash at
// any record resumes exactly-once: no migration is lost, none starts twice.
// Migration aborts and solve failures feed a deterministic retry policy
// (exponential backoff with seeded jitter); a cost-benefit gate and a
// post-migration cooldown prevent oscillation; infeasible re-advises fall
// down the advisor's solve → heuristic → SEE degradation ladder rather than
// stalling the loop.
package control

import (
	"context"
	"fmt"
	"io"
	"log/slog"

	"dblayout/internal/core"
	"dblayout/internal/layout"
	"dblayout/internal/migrate"
	"dblayout/internal/obs"
	"dblayout/internal/rubicon"
)

// Phase is the controller's lifecycle state.
type Phase int

// Controller phases.
const (
	// PhaseObserving: watching window fits, ready to detect drift.
	PhaseObserving Phase = iota
	// PhaseMigrating: a migration epoch is in flight; at most one ever is.
	PhaseMigrating
	// PhaseCooldown: a migration completed; detections are deferred until
	// the cooldown windows elapse (hysteresis against oscillation).
	PhaseCooldown
	// PhaseBackoff: a failed attempt is waiting out its retry backoff.
	PhaseBackoff
	// PhaseCrashed: a journal write failed; the controller stopped without
	// applying the transition the record announced. Restart and resume.
	PhaseCrashed
)

var phaseNames = [...]string{"observing", "migrating", "cooldown", "backoff", "crashed"}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Config configures a Controller. Instance, Current (or Resume), IO and
// Journal are required; everything else has working defaults.
type Config struct {
	// Instance is the layout problem: objects, targets with calibrated
	// cost models, and a baseline workload set (replaced per window fit
	// when re-advising).
	Instance *layout.Instance
	// Current is the layout the system starts on. Ignored when Resume is
	// non-empty — the journal is then authoritative.
	Current *layout.Layout
	// IO is the simulation surface migrations execute against
	// (*replay.BackgroundIO, or a deterministic fake in tests).
	IO migrate.IO
	// Journal receives the write-ahead record stream. A nil journal still
	// runs correctly but cannot be resumed after a crash.
	Journal io.Writer
	// Resume holds the contents of a prior journal (after wal.TruncateTorn).
	// The controller recovers its exact state from it and Journal should
	// be the same file opened for append.
	Resume []byte
	// Seed derives every random stream the controller uses (solver seeds,
	// backoff jitter) via internal/seed.
	Seed int64

	// Advisor tunes the re-advise solves. The NLP seed is overridden per
	// (epoch, attempt).
	Advisor core.Options

	// Drift supplies the hysteresis shape (Trigger, Clear, MinInterval)
	// shared by both detection signals; per-signal thresholds come from
	// UtilThreshold and OverlapThreshold below, so Drift.Threshold is
	// ignored.
	Drift obs.DriftConfig
	// UtilThreshold fires the predicted_utilization signal when the
	// current layout's predicted max utilization under a window's fitted
	// workload reaches it (default 0.9): the layout no longer fits the
	// workload. Values < 0 disable the signal.
	UtilThreshold float64
	// OverlapThreshold fires the overlap_distance signal when successive
	// window fits' overlap matrices diverge by at least it (default 0.1):
	// the workload's composition changed shape. Values < 0 disable.
	OverlapThreshold float64

	// MinGain is the smallest predicted max-utilization gain worth
	// migrating for (default 0.02).
	MinGain float64
	// HorizonSeconds is the amortization horizon of the cost-benefit
	// gate: a migration may start only when gain × HorizonSeconds covers
	// the estimated copy time (default 3600). Repairs after device
	// failures are exempt — evacuation beats amortization.
	HorizonSeconds float64
	// CooldownWindows is the number of refit windows the controller
	// stays quiet after a completed migration or an exhausted retry
	// chain (default 4).
	CooldownWindows int
	// MaxAttempts bounds the tries per drift episode, the first attempt
	// included (default 3). Exhaustion journals a terminal cfail and
	// surfaces ErrRetriesExhausted.
	MaxAttempts int
	// BaseBackoffWindows and MaxBackoffWindows shape the exponential
	// retry backoff, in refit windows (defaults 2 and 16).
	BaseBackoffWindows int
	MaxBackoffWindows  int

	// Migration tunes the engine (copy rate, queue share, chunking).
	// Journal, Resume, Checkpoint, Scratch and FailedSources are managed
	// by the controller and must be left unset.
	Migration migrate.Options

	// Logger, Events and Metrics are optional observability sinks, passed
	// through to the drift detectors and used for the controller's own
	// phase/epoch gauges and action counters.
	Logger  *slog.Logger
	Events  *obs.JSONL
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.UtilThreshold == 0 {
		c.UtilThreshold = 0.9
	}
	if c.OverlapThreshold == 0 {
		c.OverlapThreshold = 0.1
	}
	if c.MinGain == 0 {
		c.MinGain = 0.02
	}
	if c.HorizonSeconds == 0 {
		c.HorizonSeconds = 3600
	}
	if c.CooldownWindows <= 0 {
		c.CooldownWindows = 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseBackoffWindows <= 0 {
		c.BaseBackoffWindows = 2
	}
	if c.MaxBackoffWindows <= 0 {
		c.MaxBackoffWindows = 16
	}
	return c
}

// Action is one consequential controller decision, kept for reporting and
// for tests asserting the loop's behavior (e.g. zero actions under a steady
// workload).
type Action struct {
	Kind    string  `json:"kind"` // detect, skip, migrate-start, migrate-done, abort, retry, give-up, cooldown-end, resume
	Window  int64   `json:"window"`
	Time    float64 `json:"t"`
	Epoch   int     `json:"epoch,omitempty"`
	Attempt int     `json:"attempt,omitempty"`
	Signal  string  `json:"signal,omitempty"`
	Gain    float64 `json:"gain,omitempty"`
	Detail  string  `json:"detail,omitempty"`
}

// Status is a snapshot of the controller's externally visible state.
type Status struct {
	Phase    Phase
	Epoch    int // migration epochs started so far
	Attempt  int // attempt number the next try carries
	Cooldown int // refit windows of cooldown remaining
	Backoff  int // refit windows of backoff remaining
	Failed   []int
	Windows  int64 // window fits observed
}

// Controller is the autonomic control loop. It is single-threaded by design:
// ObserveFit and the migration engine's callbacks must run on the same
// simulation event loop (as they do under replay and in the chaos harness).
type Controller struct {
	cfg Config
	j   *Journal // the epoch journal owner: every controller record goes through it

	utilDet    *obs.Detector
	overlapDet *obs.Detector

	current *layout.Layout
	attempt int // attempt number the next try carries (1 = fresh episode)

	phase    Phase
	cooldown int
	backoff  int
	engine   *migrate.Engine

	lastFit *rubicon.WindowFit
	windows int64
	actions []Action
	err     error // sticky crash (or terminal resume) error

	mPhase    *obs.Gauge
	mEpoch    *obs.Gauge
	mActions  *obs.Counter
	mRetries  *obs.Counter
	mSkips    *obs.Counter
	mFailures *obs.Counter
}

// New builds (or, when cfg.Resume is non-empty, resumes) a controller. A
// resumed controller restarts an in-flight migration epoch from its journal
// checkpoint immediately — committed steps are skipped, a mid-copy step
// restarts at its last progress mark. Corrupt journals return an error
// wrapping ErrControllerCorrupt; they are never silently reinterpreted.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if cfg.Instance == nil {
		return nil, fmt.Errorf("control: Config.Instance is required")
	}
	if cfg.IO == nil {
		return nil, fmt.Errorf("control: Config.IO is required")
	}
	if err := cfg.Instance.Validate(); err != nil {
		return nil, fmt.Errorf("control: instance: %w", err)
	}
	c := &Controller{
		cfg:     cfg,
		attempt: 1,
		phase:   PhaseObserving,
	}
	det := func(threshold float64) *obs.Detector {
		if threshold < 0 {
			return nil // nil Detector ignores observations
		}
		d := cfg.Drift
		d.Threshold = threshold
		return obs.NewDetector(d, cfg.Logger, cfg.Events, cfg.Metrics)
	}
	c.utilDet = det(cfg.UtilThreshold)
	c.overlapDet = det(cfg.OverlapThreshold)
	if r := cfg.Metrics; r != nil {
		c.mPhase = r.Gauge(obs.Name("controller_phase"))
		c.mEpoch = r.Gauge(obs.Name("controller_epoch"))
		c.mActions = r.Counter(obs.Name("controller_actions_total"))
		c.mRetries = r.Counter(obs.Name("controller_retries_total"))
		c.mSkips = r.Counter(obs.Name("controller_skips_total"))
		c.mFailures = r.Counter(obs.Name("controller_failures_total"))
	}

	if len(cfg.Resume) > 0 {
		if err := c.resume(cfg.Resume); err != nil {
			return nil, err
		}
		return c, nil
	}

	if cfg.Current == nil {
		return nil, fmt.Errorf("control: Config.Current is required for a fresh start")
	}
	if err := cfg.Instance.ValidateLayout(cfg.Current); err != nil {
		return nil, fmt.Errorf("control: starting layout: %w", err)
	}
	c.current = cfg.Current.Clone()
	j, err := Begin(cfg.Journal, c.current, cfg.Seed)
	if !c.journaled(err) {
		return nil, c.err
	}
	c.j = j
	c.setPhase(PhaseObserving)
	return c, nil
}

// resume reconstructs controller state from a prior journal and restarts any
// in-flight migration epoch.
func (c *Controller) resume(data []byte) error {
	j, ck, err := Reopen(c.cfg.Journal, data)
	if err != nil {
		return err
	}
	if ck.N != c.cfg.Instance.N() || ck.M != c.cfg.Instance.M() {
		return fmt.Errorf("control: journal is for a %dx%d instance, config has %dx%d",
			ck.N, ck.M, c.cfg.Instance.N(), c.cfg.Instance.M())
	}
	if ck.Seed != c.cfg.Seed {
		return fmt.Errorf("control: journal seed %d does not match config seed %d", ck.Seed, c.cfg.Seed)
	}
	c.j = j
	c.current = ck.Current
	c.attempt = ck.Attempt
	c.act(Action{Kind: "resume", Time: c.cfg.IO.Now(), Epoch: j.Epoch(), Attempt: c.attempt})

	if ck.Open != nil {
		// The owner either reports an outcome the crash swallowed to
		// onMigrationDone (which closes the epoch and decides the retry,
		// both deterministic, so exactly-once) or restarts the engine.
		eng, err := j.Resume(ck, c.cfg.IO, c.engineOptions(), c.onMigrationDone)
		if err != nil {
			return err
		}
		if eng != nil {
			c.run(eng)
		}
		return c.err
	}
	if ck.NeedRetryDecision {
		// The crash landed between an aborted outcome and its retry
		// decision. The decision is deterministic given the journal, so
		// re-making it here is exactly-once. An exhausted budget is
		// informational (the loop enters cooldown); only a fresh crash
		// fails the resume.
		_ = c.scheduleRetry("abort", fmt.Errorf("resumed after aborted epoch %d", ck.Epoch))
		return c.err
	}
	if ck.Retry != nil {
		// The backoff countdown is not journaled per window; restart it in
		// full from the journaled delay (conservative: a crash can only
		// lengthen the wait, never double-start the retry).
		c.backoff = ck.Retry.Delay
		c.setPhase(PhaseBackoff)
		return nil
	}
	if ck.Cooling {
		// Same conservatism for the cooldown countdown.
		c.cooldown = c.cfg.CooldownWindows
		c.setPhase(PhaseCooldown)
		return nil
	}
	c.setPhase(PhaseObserving)
	return nil
}

// ObserveFit feeds one window fit from the live trace into the loop — the
// controller's only clock. It decrements cooldown/backoff countdowns, feeds
// the drift detectors, and, when a detection fires while the loop is
// observing, re-advises synchronously and (gate permitting) starts a
// migration. The returned error is a crash (sticky; the process should
// restart and resume) or ErrRetriesExhausted (the loop already recovered by
// entering cooldown; the error is informational).
func (c *Controller) ObserveFit(fit rubicon.WindowFit) error {
	if c.phase == PhaseCrashed {
		return c.err
	}
	c.windows++
	f := fit
	c.lastFit = &f

	// Detection runs in every phase so signal hysteresis tracks the
	// workload continuously; what changes per phase is whether an event
	// may act.
	event := c.detect(fit)

	switch c.phase {
	case PhaseMigrating:
		if event != nil {
			c.act(Action{Kind: "detect", Window: fit.Window, Time: fit.End,
				Signal: event.Signal, Detail: "deferred: migration in flight"})
		}
		return nil
	case PhaseCooldown:
		if event != nil {
			c.act(Action{Kind: "detect", Window: fit.Window, Time: fit.End,
				Signal: event.Signal, Detail: "deferred: cooldown"})
		}
		c.cooldown--
		if c.cooldown <= 0 {
			c.act(Action{Kind: "cooldown-end", Window: fit.Window, Time: fit.End})
			c.setPhase(PhaseObserving)
		}
		return nil
	case PhaseBackoff:
		c.backoff--
		if c.backoff <= 0 {
			return c.readvise(fit, "retry")
		}
		return nil
	}

	if event == nil {
		return nil
	}
	c.act(Action{Kind: "detect", Window: fit.Window, Time: fit.End,
		Signal: event.Signal, Gain: event.Value})
	return c.readvise(fit, event.Signal)
}

// detect feeds both drift signals for one fit and returns the first fired
// event, if any.
func (c *Controller) detect(fit rubicon.WindowFit) *obs.DriftEvent {
	var event *obs.DriftEvent
	if util, err := c.predictedUtil(fit); err == nil {
		if ev := c.utilDet.Observe("predicted_utilization", fit.Window, fit.End, util); event == nil {
			event = ev
		}
	}
	if ev := c.overlapDet.Observe("overlap_distance", fit.Window, fit.End, fit.OverlapDistance); event == nil {
		event = ev
	}
	return event
}

// predictedUtil evaluates the current layout's predicted max utilization
// under the window's fitted workload, treating the cost models as untrusted.
func (c *Controller) predictedUtil(fit rubicon.WindowFit) (u float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			u, err = 0, layout.AsModelFailure(p)
		}
	}()
	inst := c.instanceFor(fit)
	if inst.Workloads == nil || inst.Workloads.Len() != inst.N() {
		return 0, fmt.Errorf("control: window fit has %d workloads for %d objects",
			workloadCount(fit), inst.N())
	}
	return layout.NewEvaluator(inst).MaxUtilization(c.current), nil
}

func workloadCount(fit rubicon.WindowFit) int {
	if fit.Set == nil {
		return 0
	}
	return fit.Set.Len()
}

// instanceFor clones the configured instance with the window's fitted
// workload set in place of the baseline one.
func (c *Controller) instanceFor(fit rubicon.WindowFit) *layout.Instance {
	inst := *c.cfg.Instance
	inst.Workloads = fit.Set
	return &inst
}

// readvise runs one attempt: advise a new layout for the fitted workload,
// plan and script the migration, apply the cost-benefit gate, and start the
// engine. Hard failures feed the retry policy; the degradation ladder inside
// the advisor absorbs soft ones.
func (c *Controller) readvise(fit rubicon.WindowFit, reason string) error {
	attempt := c.attempt
	epoch := c.j.Epoch() + 1
	target, gain, repair, err := c.advise(fit, epoch, attempt)
	if err != nil {
		return c.retryFailure(fit, "advise", err)
	}

	sizes := c.cfg.Instance.Sizes()
	caps := c.cfg.Instance.Capacities()
	plan, err := layout.MigrationPlan(c.current, target, sizes)
	if err != nil {
		return c.retryFailure(fit, "plan", err)
	}
	if len(plan) == 0 {
		c.skip(fit, reason, gain, "advised layout equals current")
		return nil
	}
	scratch := migrate.AutoScratch(c.current, target, sizes, caps, c.j.Failed()...)
	steps, err := migrate.BuildScript(c.current, plan, sizes, caps, scratch)
	if err != nil {
		return c.retryFailure(fit, "plan", err)
	}

	// The cost-benefit gate: the predicted gain must clear the floor and
	// amortize the copy within the horizon. Repairs are exempt — an
	// evacuation is about survival, not amortization.
	if !repair {
		if gain < c.cfg.MinGain {
			c.skip(fit, reason, gain, fmt.Sprintf("gain %.4f below floor %.4f", gain, c.cfg.MinGain))
			return nil
		}
		if rate := c.cfg.Migration.BytesPerSec; rate > 0 {
			copySec := float64(migrate.ScriptBytes(steps)) / rate
			if gain*c.cfg.HorizonSeconds < copySec {
				c.skip(fit, reason, gain,
					fmt.Sprintf("copy time %.0fs exceeds amortized benefit %.0fs", copySec, gain*c.cfg.HorizonSeconds))
				return nil
			}
		}
	}

	if !c.journaled(c.j.Plan(Record{Attempt: attempt, Steps: steps, Scratch: &scratch, Reason: reason, Gain: gain})) {
		return c.err
	}
	c.mEpoch.Set(float64(epoch))
	eng, err := c.j.Engine(c.cfg.IO, c.current, nil, c.engineOptions(), c.onMigrationDone)
	if err != nil {
		// The script validated in BuildScript, so this is unexpected —
		// but feeding it the retry policy keeps the loop alive. The
		// opened epoch closes as aborted with no engine records is not
		// representable, so treat it as a crash: the journal must not be
		// left with a dangling cplan that never aborts.
		c.err = fmt.Errorf("control: engine start: %w", err)
		c.setPhase(PhaseCrashed)
		return c.err
	}
	c.run(eng)
	c.act(Action{Kind: "migrate-start", Window: fit.Window, Time: fit.End,
		Epoch: epoch, Attempt: attempt, Signal: reason, Gain: gain,
		Detail: fmt.Sprintf("%d steps, %d bytes", len(steps), migrate.ScriptBytes(steps))})
	return nil
}

// advise produces the target layout for one attempt. With failed targets
// still holding data it runs the failure-aware repair (evacuation); otherwise
// the full advisor on an instance that denies the failed targets.
func (c *Controller) advise(fit rubicon.WindowFit, epoch, attempt int) (target *layout.Layout, gain float64, repairMode bool, err error) {
	inst := c.instanceFor(fit)
	if err := inst.Validate(); err != nil {
		return nil, 0, false, fmt.Errorf("control: fitted instance: %w", err)
	}
	opt := c.cfg.Advisor
	opt.NLP.Seed = c.adviseSeed(epoch, attempt)
	opt.Logger = c.cfg.Logger

	uCur, uErr := c.predictedUtil(fit)

	failed := c.j.Failed()
	if c.placesOnFailed() {
		rep, rerr := core.RecommendRepair(context.Background(), inst, c.current, failed, opt)
		if rerr != nil {
			return nil, 0, false, rerr
		}
		if uErr == nil {
			gain = uCur - rep.Objective
		}
		return rep.Layout, gain, true, nil
	}

	if len(failed) > 0 {
		inst, err = core.DenyTargets(inst, failed)
		if err != nil {
			return nil, 0, false, err
		}
	}
	adv, aerr := core.New(inst, opt)
	if aerr != nil {
		return nil, 0, false, aerr
	}
	rec, aerr := adv.Recommend()
	if aerr != nil {
		return nil, 0, false, aerr
	}
	if uErr == nil {
		gain = uCur - rec.FinalObjective
	}
	return rec.Final, gain, false, nil
}

// placesOnFailed reports whether the current layout still stores bytes on a
// failed target — the condition that switches re-advising into repair mode.
func (c *Controller) placesOnFailed() bool {
	for _, j := range c.j.Failed() {
		for i := 0; i < c.current.N; i++ {
			if c.current.At(i, j) > layout.Epsilon {
				return true
			}
		}
	}
	return false
}

// engineOptions returns the engine options the journal owner completes per
// epoch: the configured copy tuning plus the controller's metrics.
func (c *Controller) engineOptions() migrate.Options {
	opt := c.cfg.Migration
	opt.Metrics = c.cfg.Metrics
	return opt
}

// run starts an epoch's engine; it may finish synchronously on resume.
func (c *Controller) run(eng *migrate.Engine) {
	c.engine = eng
	c.setPhase(PhaseMigrating)
	eng.Start()
}

// onMigrationDone is the engine's completion callback, running on the
// simulation event loop (or inside Journal.Resume for an outcome a crash
// swallowed). It closes the epoch: a done one enters cooldown with a fresh
// attempt counter, an aborted one feeds the retry policy.
func (c *Controller) onMigrationDone(res *migrate.Result) {
	c.engine = nil
	if res.Crashed {
		c.err = res.Err
		c.setPhase(PhaseCrashed)
		return
	}
	c.current = res.Layout.Clone()
	if !c.journaled(c.j.Outcome(res, c.cfg.CooldownWindows)) {
		return
	}
	if res.Done {
		c.attempt = 1
		c.cooldown = c.cfg.CooldownWindows
		c.act(Action{Kind: "migrate-done", Time: c.cfg.IO.Now(), Epoch: c.j.Epoch()})
		c.setPhase(PhaseCooldown)
		return
	}
	c.act(Action{Kind: "abort", Time: c.cfg.IO.Now(), Epoch: c.j.Epoch(),
		Detail: fmt.Sprintf("targets %v failed", res.FailedTargets)})
	c.scheduleRetry("abort", res.Err)
}

// retryFailure handles a failed re-advise or planning step (no epoch was
// opened) through the same retry policy as an abort.
func (c *Controller) retryFailure(fit rubicon.WindowFit, stage string, cause error) error {
	c.act(Action{Kind: "retry", Window: fit.Window, Time: fit.End,
		Attempt: c.attempt, Detail: fmt.Sprintf("%s failed: %v", stage, cause)})
	return c.scheduleRetry(stage, cause)
}

// scheduleRetry journals the retry decision: backoff before the next attempt,
// or a terminal cfail when the budget is spent. Deterministic given the
// journal, so a crash between the outcome and this record replays the same
// decision. Returns the sticky crash error, ErrRetriesExhausted on
// exhaustion (informational — the loop enters cooldown and keeps running),
// or nil.
func (c *Controller) scheduleRetry(stage string, cause error) error {
	if c.attempt >= c.cfg.MaxAttempts {
		if !c.journaled(c.j.Fail(c.attempt, cause)) {
			return c.err
		}
		rerr := &RetryError{Epoch: c.j.Epoch(), Attempts: c.attempt, Cause: cause, Reason: stage}
		c.act(Action{Kind: "give-up", Time: c.cfg.IO.Now(), Epoch: c.j.Epoch(),
			Attempt: c.attempt, Detail: rerr.Error()})
		c.mFailures.Inc()
		c.attempt = 1
		c.cooldown = c.cfg.CooldownWindows
		c.setPhase(PhaseCooldown)
		return rerr
	}
	next := c.attempt + 1
	delay := c.backoffDelay(next)
	if !c.journaled(c.j.Retry(next, delay, cause)) {
		return c.err
	}
	c.attempt = next
	c.backoff = delay
	c.mRetries.Inc()
	c.act(Action{Kind: "retry", Time: c.cfg.IO.Now(), Epoch: c.j.Epoch(),
		Attempt: next, Detail: fmt.Sprintf("backoff %d windows after %s failure", delay, stage)})
	c.setPhase(PhaseBackoff)
	return nil
}

// skip records a gated (not acted upon) detection and returns the loop to
// observing — in particular from a backoff expiry whose re-advise no longer
// wants to migrate (the drift resolved itself).
func (c *Controller) skip(fit rubicon.WindowFit, reason string, gain float64, detail string) {
	c.mSkips.Inc()
	c.act(Action{Kind: "skip", Window: fit.Window, Time: fit.End,
		Signal: reason, Gain: gain, Detail: detail})
	c.setPhase(PhaseObserving)
}

// journaled treats a failed journal append as a crash: the controller stops
// immediately without applying the transition the record announced. Returns
// false when the controller crashed.
func (c *Controller) journaled(err error) bool {
	if err != nil {
		c.err = fmt.Errorf("control: journal write failed: %w", err)
		c.setPhase(PhaseCrashed)
		return false
	}
	return true
}

func (c *Controller) setPhase(p Phase) {
	c.phase = p
	c.mPhase.Set(float64(p))
}

func (c *Controller) act(a Action) {
	c.actions = append(c.actions, a)
	c.mActions.Inc()
	if c.cfg.Logger != nil {
		c.cfg.Logger.Info("controller action",
			"kind", a.Kind, "window", a.Window, "t", a.Time,
			"epoch", a.Epoch, "attempt", a.Attempt, "signal", a.Signal,
			"gain", a.Gain, "detail", a.Detail)
	}
	if c.cfg.Events != nil {
		_ = c.cfg.Events.Write(a)
	}
}

// Status returns a snapshot of the controller state.
func (c *Controller) Status() Status {
	return Status{
		Phase:    c.phase,
		Epoch:    c.j.Epoch(),
		Attempt:  c.attempt,
		Cooldown: c.cooldown,
		Backoff:  c.backoff,
		Failed:   append([]int(nil), c.j.Failed()...),
		Windows:  c.windows,
	}
}

// CurrentLayout returns a copy of the layout the controller believes the
// system implements (base plus every committed migration step).
func (c *Controller) CurrentLayout() *layout.Layout { return c.current.Clone() }

// Actions returns a copy of the action log, in order.
func (c *Controller) Actions() []Action { return append([]Action(nil), c.actions...) }

// Err returns the sticky crash error, nil while the controller is healthy.
func (c *Controller) Err() error { return c.err }

// Crashed reports whether the controller hit a journal write failure (or an
// unrecoverable engine start) and stopped.
func (c *Controller) Crashed() bool { return c.phase == PhaseCrashed }

// DriftEvents returns every drift event the controller's detectors fired.
func (c *Controller) DriftEvents() []obs.DriftEvent {
	evs := c.utilDet.Events()
	return append(evs, c.overlapDet.Events()...)
}
