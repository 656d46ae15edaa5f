package control

// The chaos harness: a deterministic campaign of fault-injection scenarios
// driving the controller through crashes, device failures, torn journal
// writes and corrupted journals, checking invariants after every simulated
// process lifetime. It lives in the package (not a _test file) so both the
// test suite (chaos_test.go) and cmd/experiments -run chaos execute the same
// campaign.
//
// Everything is derived from a single seed: the workload schedule, the crash
// budgets, the device fault times and the corruption offsets, so a failing
// scenario replays bit-identically from its seed.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"dblayout/internal/core"
	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
	"dblayout/internal/migrate"
	"dblayout/internal/nlp"
	"dblayout/internal/obs"
	"dblayout/internal/rome"
	"dblayout/internal/rubicon"
	"dblayout/internal/seed"
	"dblayout/internal/storage"
	"dblayout/internal/wal"
)

// SimIO is a deterministic in-memory migrate.IO: a storage.Calendar keyed on
// simulated time, devices with a fixed service rate, and an optional fail
// time per device after which every request to it fails. It is the cheap
// stand-in for replay.BackgroundIO that lets chaos scenarios run thousands of
// controller lifetimes in milliseconds. A request's completion (its done
// callback, device and failed flag) rides in its calendar event by value, so
// Submit and After allocate nothing once the calendar has grown.
type SimIO struct {
	devs    []SimDevice
	queues  []int
	now     float64
	events  storage.Calendar[simEvent]
	streams uint64
}

// SimDevice describes one simulated device.
type SimDevice struct {
	Name        string
	Capacity    int64
	BytesPerSec float64 // service rate used for request latencies
	FailAt      float64 // simulated time the device fails; negative = never
}

// NewSimIO builds a SimIO starting at the given simulated time.
func NewSimIO(devs []SimDevice, start float64) *SimIO {
	return &SimIO{devs: devs, queues: make([]int, len(devs)), now: start}
}

// simEvent is one SimIO calendar entry: a callback scheduled with After, or
// the completion of a request.
type simEvent struct {
	fn     func()            // After's callback; nil for a completion
	done   func(failed bool) // the request's completion callback
	dev    int               // the request's device
	failed bool              // the request failed
}

// Now returns the simulated time.
func (s *SimIO) Now() float64 { return s.now }

// After schedules fn after delay simulated seconds.
func (s *SimIO) After(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.events.Push(s.now+delay, simEvent{fn: fn})
}

// Devices returns the device count.
func (s *SimIO) Devices() int { return len(s.devs) }

// DeviceName returns device j's name.
func (s *SimIO) DeviceName(j int) string { return s.devs[j].Name }

// Capacity returns device j's capacity in bytes.
func (s *SimIO) Capacity(j int) int64 { return s.devs[j].Capacity }

// QueueDepth returns the outstanding request count on device j.
func (s *SimIO) QueueDepth(j int) int { return s.queues[j] }

// NewStream allocates a stream id.
func (s *SimIO) NewStream() uint64 {
	s.streams++
	return s.streams
}

// Submit models one request: latency is a fixed positioning cost plus the
// transfer time at the device's service rate, and the request fails when the
// device's fail time has passed.
func (s *SimIO) Submit(dev, obj int, stream uint64, off, size int64, write bool, done func(failed bool)) {
	d := &s.devs[dev]
	lat := 2e-4
	if d.BytesPerSec > 0 {
		lat += float64(size) / d.BytesPerSec
	}
	failed := d.FailAt >= 0 && s.now >= d.FailAt
	s.queues[dev]++
	s.events.Push(s.now+lat, simEvent{done: done, dev: dev, failed: failed})
}

// Advance runs every scheduled event up to now+dt in deterministic order and
// moves the clock there.
func (s *SimIO) Advance(dt float64) {
	end := s.now + dt
	for s.events.Len() > 0 && s.events.Next() <= end {
		at, ev := s.events.Pop()
		if at > s.now {
			s.now = at
		}
		if ev.fn != nil {
			ev.fn()
			continue
		}
		s.queues[ev.dev]--
		ev.done(ev.failed)
	}
	s.now = end
}

// ChaosScenario is one seeded fault-injection scenario. All fault injection
// is derived deterministically from Seed, so a scenario replays exactly.
type ChaosScenario struct {
	Seed int64
	// CrashEveryRecord kills the controller process after every single
	// journal record — the exhaustive crash-at-every-record schedule.
	// When false, crash points are random (including crash-free sessions).
	CrashEveryRecord bool
	// TornWrites makes crashes leave a torn half-written final line.
	TornWrites bool
	// CorruptTail flips one byte inside the durable journal once, and
	// requires the resume to detect it (ErrControllerCorrupt) rather than
	// act on a corrupt record.
	CorruptTail bool
	// DeviceFault fails one device mid-episode, forcing an abort and the
	// repair path.
	DeviceFault bool
	// DriftBack shifts the workload back right after the first migration
	// completes — drift arriving during cooldown, which must be deferred
	// and then acted on, never acted on early.
	DriftBack bool

	// MaxWindows and MaxSessions bound the scenario (defaults 400, 4000).
	MaxWindows  int64
	MaxSessions int
}

// ChaosReport aggregates what one scenario went through.
type ChaosReport struct {
	Seed                int64 `json:"seed"`
	Sessions            int   `json:"sessions"` // controller lifetimes (1 + crashes survived)
	Crashes             int   `json:"crashes"`
	Windows             int64 `json:"windows"`
	Epochs              int   `json:"epochs"` // completed migration epochs (migrate-done)
	Aborts              int   `json:"aborts"`
	Retries             int   `json:"retries"`
	GiveUps             int   `json:"give_ups"`
	Skips               int   `json:"skips"`
	CorruptionsCaught   int   `json:"corruptions_caught"`
	JournalBytes        int   `json:"journal_bytes"`
	ReachedSteadyState  bool  `json:"steady"`
	DeviceFailed        int   `json:"device_failed"` // -1 when no fault injected
	FinalLayoutIsRepair bool  `json:"final_layout_is_repair"`
}

// chaosRun is the mutable state of one scenario execution.
type chaosRun struct {
	sc   ChaosScenario
	rng  *rand.Rand
	inst *layout.Instance

	steady  *rome.Set
	drifted *rome.Set
	initial *layout.Layout

	utilThreshold float64

	journal   []byte  // full journal bytes, torn tail included
	simNow    float64 // simulated clock, persisted across crashes
	window    int64   // next window to feed
	failDev   int     // device scheduled to fail, -1 when none
	failAt    float64
	corrupted bool // corrupt-tail injection already performed

	driftAt     int64 // window the workload shifts at
	shiftBackAt int64 // window the workload shifts back at, -1 until scheduled

	expectedEpochs int
	steadyTail     int64 // consecutive quiet windows once expectations are met
	stall          int64 // observing windows with pending work and no action

	rep ChaosReport
}

// chaosSets builds the two workload phases: a steady OLTP-ish mix, and a
// drifted one where the cold object becomes the hot scan and the former hot
// tables go quiet — a diurnal OLTP→OLAP shift in miniature.
func chaosSets() (steady, drifted *rome.Set) {
	mk := func(ws ...*rome.Workload) *rome.Set {
		s, err := rome.NewSet(ws...)
		if err != nil {
			panic(err)
		}
		return s
	}
	steady = mk(
		&rome.Workload{Name: "T1", ReadSize: 131072, ReadRate: 300, RunCount: 64, Overlap: []float64{1, 0.9, 0.5, 0.1}},
		&rome.Workload{Name: "T2", ReadSize: 131072, ReadRate: 200, RunCount: 64, Overlap: []float64{0.9, 1, 0.5, 0.1}},
		&rome.Workload{Name: "IX", ReadSize: 8192, ReadRate: 120, WriteSize: 8192, WriteRate: 30, RunCount: 1, Overlap: []float64{0.5, 0.5, 1, 0.1}},
		&rome.Workload{Name: "COLD", ReadSize: 8192, ReadRate: 2, RunCount: 1, Overlap: []float64{0.1, 0.1, 0.1, 1}},
	)
	drifted = mk(
		&rome.Workload{Name: "T1", ReadSize: 131072, ReadRate: 20, RunCount: 64, Overlap: []float64{1, 0.1, 0.1, 0.9}},
		&rome.Workload{Name: "T2", ReadSize: 131072, ReadRate: 10, RunCount: 64, Overlap: []float64{0.1, 1, 0.1, 0.1}},
		&rome.Workload{Name: "IX", ReadSize: 8192, ReadRate: 150, WriteSize: 8192, WriteRate: 40, RunCount: 1, Overlap: []float64{0.1, 0.1, 1, 0.5}},
		&rome.Workload{Name: "COLD", ReadSize: 131072, ReadRate: 350, RunCount: 64, Overlap: []float64{0.9, 0.1, 0.5, 1}},
	)
	return steady, drifted
}

// chaosInstance builds the scenario's layout problem: the four standard test
// objects scaled down to MiB sizes (so migrations complete in simulated
// seconds) on four disk targets.
func chaosInstance(steady *rome.Set) *layout.Instance {
	inst := &layout.Instance{
		Objects: []layout.Object{
			{Name: "T1", Size: 8 << 20, Kind: layout.KindTable},
			{Name: "T2", Size: 8 << 20, Kind: layout.KindTable},
			{Name: "IX", Size: 4 << 20, Kind: layout.KindIndex},
			{Name: "COLD", Size: 4 << 20, Kind: layout.KindTable},
		},
		Targets:   layouttest.Targets(4, 32<<20),
		Workloads: steady,
	}
	if err := inst.Validate(); err != nil {
		panic(err)
	}
	return inst
}

// RunChaosScenario executes one scenario to steady state, checking the
// controller's invariants after every simulated process lifetime:
//
//   - the recovered journal is never corrupt (unless corruption was injected,
//     which must be detected, not acted on);
//   - the recovered layout always passes integrity and capacity checks;
//   - no migration step commits twice and at most one epoch is ever open;
//   - the controller re-reaches steady state within the scenario budget.
//
// The returned error is the first invariant violation (nil on success); the
// report is returned in both cases.
func RunChaosScenario(sc ChaosScenario) (*ChaosReport, error) {
	if sc.MaxWindows <= 0 {
		sc.MaxWindows = 400
	}
	if sc.MaxSessions <= 0 {
		sc.MaxSessions = 4000
	}
	steady, drifted := chaosSets()
	inst := chaosInstance(steady)
	initial, err := layout.InitialLayout(inst)
	if err != nil {
		return nil, fmt.Errorf("chaos: initial layout: %w", err)
	}
	c := &chaosRun{
		sc:      sc,
		rng:     rand.New(rand.NewSource(seed.Sub(sc.Seed, seed.StreamChaos))),
		inst:    inst,
		steady:  steady,
		drifted: drifted,
		initial: initial,
		failDev: -1,
		driftAt: 3, shiftBackAt: -1,
		expectedEpochs: 1,
	}
	c.rep.Seed = sc.Seed
	c.rep.DeviceFailed = -1
	c.calibrate()
	if sc.DriftBack {
		c.expectedEpochs = 2
	}
	if sc.DeviceFault {
		c.failDev = c.rng.Intn(inst.M())
		c.failAt = float64(c.driftAt) + 1 + 3*c.rng.Float64()
		c.rep.DeviceFailed = c.failDev
	}

	for c.rep.Sessions < sc.MaxSessions {
		c.rep.Sessions++
		done, err := c.session()
		if err != nil {
			return &c.rep, fmt.Errorf("chaos: seed %d session %d: %w", sc.Seed, c.rep.Sessions, err)
		}
		if err := c.checkInvariants(); err != nil {
			return &c.rep, fmt.Errorf("chaos: seed %d session %d: invariant: %w", sc.Seed, c.rep.Sessions, err)
		}
		if done {
			c.rep.ReachedSteadyState = true
			c.rep.JournalBytes = len(c.journal)
			return &c.rep, nil
		}
		if c.window >= sc.MaxWindows {
			return &c.rep, fmt.Errorf("chaos: seed %d: no steady state within %d windows (%d sessions, %d epochs of %d expected)",
				sc.Seed, sc.MaxWindows, c.rep.Sessions, c.rep.Epochs, c.expectedEpochs)
		}
	}
	return &c.rep, fmt.Errorf("chaos: seed %d: no steady state within %d sessions", sc.Seed, sc.MaxSessions)
}

// calibrate picks the predicted-utilization threshold between the steady and
// drifted utilization of the starting layout, so the signal stays quiet on
// the steady phase and fires (sustained) on the drifted one.
func (c *chaosRun) calibrate() {
	util := func(set *rome.Set) float64 {
		inst := *c.inst
		inst.Workloads = set
		return layout.NewEvaluator(&inst).MaxUtilization(c.initial)
	}
	uSteady, uDrift := util(c.steady), util(c.drifted)
	if uDrift > uSteady+0.05 {
		c.utilThreshold = uSteady + 0.5*(uDrift-uSteady)
	} else {
		c.utilThreshold = -1 // signal would be noise; overlap carries detection
	}
}

// chaosWriter is the crash-injecting journal sink: after its record budget is
// spent, writes fail — optionally leaving a torn half-line, as a real crash
// mid-write would.
type chaosWriter struct {
	buf       *bytes.Buffer
	remaining int
	torn      bool
}

var errInjectedCrash = errors.New("chaos: injected crash")

func (w *chaosWriter) Write(p []byte) (int, error) {
	if w.remaining <= 0 {
		if w.torn && len(p) > 2 {
			w.buf.Write(p[: len(p)/2 : len(p)/2])
		}
		return 0, errInjectedCrash
	}
	w.remaining--
	return w.buf.Write(p)
}

// setFor returns the workload phase window w belongs to.
func (c *chaosRun) setFor(w int64) *rome.Set {
	if w < c.driftAt {
		return c.steady
	}
	if c.shiftBackAt >= 0 && w >= c.shiftBackAt {
		return c.steady
	}
	return c.drifted
}

// fitFor synthesizes the window-w fit: the phase's workload set and the
// overlap distance to the previous window's set. A stalled loop (a detection
// lost to a crash between firing and the cplan record) is unstuck by an
// overlap blip — the workload legitimately keeps changing until acted on.
func (c *chaosRun) fitFor(w int64) rubicon.WindowFit {
	set := c.setFor(w)
	prev := set
	if w > 0 {
		prev = c.setFor(w - 1)
	}
	dist := rubicon.OverlapDistance(prev, set)
	if c.stall >= 10 {
		dist = 0.5
		c.stall = 0
	}
	return rubicon.WindowFit{
		Window: w, Start: float64(w), End: float64(w + 1),
		Set: set, Requests: 1000, OverlapDistance: dist,
	}
}

// config assembles the controller configuration for one session.
func (c *chaosRun) config(sim *SimIO, w *chaosWriter, resume []byte) Config {
	cfg := Config{
		Instance: c.inst,
		IO:       sim,
		Journal:  w,
		Seed:     c.sc.Seed,
		Advisor:  core.Options{NLP: nlp.Options{MaxIters: 400, Restarts: nlp.NoRestarts}},
		Drift:    obs.DriftConfig{Trigger: 1, Clear: 2, MinInterval: 2},

		UtilThreshold:    c.utilThreshold,
		OverlapThreshold: 0.1,
		// The gate floor must exceed per-resolve solver noise: after a
		// repair the utilization signal stays elevated and re-fires at the
		// MinInterval cadence, and each re-advise solves with a fresh seed.
		// A floor below the noise would ratchet marginal migrations forever.
		MinGain:         0.02,
		HorizonSeconds:  1e6,
		CooldownWindows: 3,
		MaxAttempts:     3,

		BaseBackoffWindows: 1,
		MaxBackoffWindows:  4,
		Migration: migrate.Options{
			BytesPerSec:     4 << 20,
			ChunkBytes:      256 << 10,
			CheckpointBytes: 1 << 20,
			MaxQueueShare:   1,
		},
	}
	if len(resume) > 0 {
		cfg.Resume = resume
	} else {
		cfg.Current = c.initial
	}
	return cfg
}

// simDevices builds the session's device table, with the scheduled fault.
func (c *chaosRun) simDevices() []SimDevice {
	caps := c.inst.Capacities()
	devs := make([]SimDevice, c.inst.M())
	for j := range devs {
		devs[j] = SimDevice{
			Name:        c.inst.Targets[j].Name,
			Capacity:    caps[j],
			BytesPerSec: 64 << 20,
			FailAt:      -1,
		}
		if j == c.failDev {
			devs[j].FailAt = c.failAt
		}
	}
	return devs
}

// session runs one controller lifetime: resume (or fresh start), feed windows
// until crash, completion, or the window budget. Returns done=true when the
// scenario reached verified steady state.
func (c *chaosRun) session() (bool, error) {
	durable := wal.TruncateTorn(c.journal)

	// Corruption injection: flip a byte of the durable journal and require
	// the resume to reject it, then carry on with the pristine bytes.
	if c.sc.CorruptTail && !c.corrupted && len(durable) > 40 {
		c.corrupted = true
		bad := append([]byte(nil), durable...)
		bad[c.rng.Intn(len(bad)-1)] ^= 0x5a
		sim := NewSimIO(c.simDevices(), c.simNow)
		w := &chaosWriter{buf: &bytes.Buffer{}, remaining: 1 << 30}
		if _, err := New(c.config(sim, w, bad)); !errors.Is(err, ErrControllerCorrupt) {
			return false, fmt.Errorf("corrupted journal not detected: New returned %v", err)
		}
		c.rep.CorruptionsCaught++
	}

	budget := 1 << 30 // crash-free
	if c.sc.CrashEveryRecord {
		budget = 1
	} else if c.rng.Intn(4) > 0 {
		budget = 1 + c.rng.Intn(40)
	}
	torn := c.sc.TornWrites && c.rng.Intn(2) == 0

	sim := NewSimIO(c.simDevices(), c.simNow)
	w := &chaosWriter{
		buf:       bytes.NewBuffer(append([]byte(nil), durable...)),
		remaining: budget,
		torn:      torn,
	}
	ctrl, err := New(c.config(sim, w, durable))
	if err != nil {
		c.journal = w.buf.Bytes()
		c.simNow = sim.Now()
		if errors.Is(err, ErrControllerCorrupt) {
			return false, fmt.Errorf("journal rejected without injected corruption: %w", err)
		}
		c.rep.Crashes++
		return false, nil
	}
	seen := 0
	seen = c.harvest(ctrl, seen)

	for c.window < c.sc.MaxWindows {
		oerr := ctrl.ObserveFit(c.fitFor(c.window))
		c.window++
		c.rep.Windows = c.window
		sim.Advance(1)
		seen = c.harvest(ctrl, seen)
		if oerr != nil && !errors.Is(oerr, ErrRetriesExhausted) && !ctrl.Crashed() {
			return false, fmt.Errorf("ObserveFit: %v", oerr)
		}
		if ctrl.Crashed() {
			break
		}
		if done := c.observeProgress(ctrl); done {
			c.journal = w.buf.Bytes()
			c.simNow = sim.Now()
			return true, nil
		}
	}
	c.journal = w.buf.Bytes()
	c.simNow = sim.Now()
	if ctrl.Crashed() {
		c.rep.Crashes++
	}
	return false, nil
}

// harvest folds newly recorded controller actions into the report and resets
// the stall/steady counters they affect. Actions that follow a journal write
// are recorded exactly once across crashes; purely informational ones may
// repeat after a crash, which only the informational counters see.
func (c *chaosRun) harvest(ctrl *Controller, seen int) int {
	actions := ctrl.Actions()
	for _, a := range actions[seen:] {
		switch a.Kind {
		case "migrate-done":
			c.rep.Epochs++
			if c.sc.DriftBack && c.shiftBackAt < 0 {
				c.shiftBackAt = c.window + 1
			}
		case "abort":
			c.rep.Aborts++
		case "retry":
			c.rep.Retries++
		case "give-up":
			c.rep.GiveUps++
		case "skip":
			c.rep.Skips++
		}
		switch a.Kind {
		case "resume", "cooldown-end":
		default:
			c.stall = 0
		}
		switch a.Kind {
		case "migrate-start", "abort", "retry", "give-up":
			c.steadyTail = 0
		}
	}
	return len(actions)
}

// observeProgress updates the stall and steady-state trackers after one
// window and reports whether the scenario is verifiably done: expectations
// met and the loop quiet in the observing phase for a full tail of windows.
func (c *chaosRun) observeProgress(ctrl *Controller) bool {
	st := ctrl.Status()
	if st.Phase != PhaseObserving {
		c.stall = 0
		c.steadyTail = 0
		return false
	}
	if c.rep.Epochs < c.expectedEpochs {
		c.stall++
		c.steadyTail = 0
		return false
	}
	c.stall = 0
	c.steadyTail++
	return c.steadyTail >= 8
}

// checkInvariants validates the durable journal after a session: it must
// recover, and the recovered layout must be internally consistent and fit
// device capacities. Structural invariants — at most one open epoch, monotone
// step states, no double commit — are enforced by Recover itself; a violation
// surfaces here as a recovery error on a journal the controller itself wrote.
func (c *chaosRun) checkInvariants() error {
	durable := wal.TruncateTorn(c.journal)
	if len(durable) == 0 {
		return nil
	}
	ck, err := Recover(durable)
	if err != nil {
		return fmt.Errorf("journal the controller wrote does not recover: %w", err)
	}
	if err := ck.Current.CheckIntegrity(); err != nil {
		return fmt.Errorf("recovered layout: %w", err)
	}
	sizes, caps := c.inst.Sizes(), c.inst.Capacities()
	if err := ck.Current.CheckCapacity(sizes, caps); err != nil {
		return fmt.Errorf("recovered layout overflows: %w", err)
	}
	if open := ck.Open; open != nil && open.Checkpoint != nil {
		mid := ck.Current.Clone()
		open.Checkpoint.ApplyCommitted(mid)
		if err := mid.CheckIntegrity(); err != nil {
			return fmt.Errorf("mid-epoch layout: %w", err)
		}
	}
	if len(ck.Failed) > 0 {
		c.rep.FinalLayoutIsRepair = true
	}
	return nil
}

// ChaosCampaignConfig configures a campaign of seeded scenarios.
type ChaosCampaignConfig struct {
	// Scenarios is the number of seeded scenarios (default 50).
	Scenarios int
	// BaseSeed derives every scenario seed (scenario i uses
	// seed.Sub(BaseSeed, seed.StreamChaos, i)).
	BaseSeed int64
}

// ChaosCampaignReport aggregates a campaign.
type ChaosCampaignReport struct {
	Scenarios []ChaosReport `json:"scenarios"`
	Sessions  int           `json:"sessions"`
	Crashes   int           `json:"crashes"`
	Epochs    int           `json:"epochs"`
	Aborts    int           `json:"aborts"`
	GiveUps   int           `json:"give_ups"`
}

// ScenarioFor derives campaign scenario i: the fault dimensions cycle on
// coprime periods so every combination occurs within a long enough campaign.
func (cfg ChaosCampaignConfig) ScenarioFor(i int) ChaosScenario {
	return ChaosScenario{
		Seed:             seed.Sub(cfg.BaseSeed, seed.StreamChaos, int64(i)),
		CrashEveryRecord: i%5 == 4,
		TornWrites:       i%2 == 0,
		CorruptTail:      i%3 == 0,
		DeviceFault:      i%4 == 1 || i%4 == 3,
		DriftBack:        i%4 == 2 || i%4 == 3,
	}
}

// RunChaosCampaign executes the campaign, stopping at the first invariant
// violation. The partial report is returned alongside the error.
func RunChaosCampaign(cfg ChaosCampaignConfig) (*ChaosCampaignReport, error) {
	if cfg.Scenarios <= 0 {
		cfg.Scenarios = 50
	}
	rep := &ChaosCampaignReport{}
	for i := 0; i < cfg.Scenarios; i++ {
		sc := cfg.ScenarioFor(i)
		r, err := RunChaosScenario(sc)
		if r != nil {
			rep.Scenarios = append(rep.Scenarios, *r)
			rep.Sessions += r.Sessions
			rep.Crashes += r.Crashes
			rep.Epochs += r.Epochs
			rep.Aborts += r.Aborts
			rep.GiveUps += r.GiveUps
		}
		if err != nil {
			return rep, fmt.Errorf("chaos campaign: scenario %d (%+v): %w", i, sc, err)
		}
	}
	return rep, nil
}
