package control

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"dblayout/internal/layout"
	"dblayout/internal/rome"
	"dblayout/internal/rubicon"
	"dblayout/internal/wal"
)

// ctFixture bundles the chaos fixture for direct controller tests.
type ctFixture struct {
	inst    *layout.Instance
	steady  *rome.Set
	drifted *rome.Set
	initial *layout.Layout
	sim     *SimIO
}

func newCtFixture(t *testing.T) *ctFixture {
	t.Helper()
	steady, drifted := chaosSets()
	inst := chaosInstance(steady)
	initial, err := layout.InitialLayout(inst)
	if err != nil {
		t.Fatalf("initial layout: %v", err)
	}
	devs := make([]SimDevice, inst.M())
	caps := inst.Capacities()
	for j := range devs {
		devs[j] = SimDevice{Name: inst.Targets[j].Name, Capacity: caps[j], BytesPerSec: 64 << 20, FailAt: -1}
	}
	return &ctFixture{inst: inst, steady: steady, drifted: drifted, initial: initial,
		sim: NewSimIO(devs, 0)}
}

func (f *ctFixture) config(journal *bytes.Buffer, resume []byte) Config {
	run := &chaosRun{inst: f.inst, steady: f.steady, drifted: f.drifted, initial: f.initial}
	run.calibrate()
	cfg := run.config(f.sim, &chaosWriter{buf: journal, remaining: 1 << 30}, resume)
	cfg.Journal = journal // crash-free unless a test swaps the writer in
	return cfg
}

// fit synthesizes a window fit over the given set, with the overlap distance
// to the previous window's set.
func (f *ctFixture) fit(w int64, set, prev *rome.Set) rubicon.WindowFit {
	dist := 0.0
	if prev != nil {
		dist = rubicon.OverlapDistance(prev, set)
	}
	return rubicon.WindowFit{Window: w, Start: float64(w), End: float64(w + 1),
		Set: set, Requests: 1000, OverlapDistance: dist}
}

// feed pushes n windows of set through the controller, advancing simulated
// time one second per window. The first window's overlap distance is taken
// against prev (nil = no transition).
func (f *ctFixture) feed(t *testing.T, c *Controller, start int64, n int, set, prev *rome.Set) int64 {
	t.Helper()
	for i := 0; i < n; i++ {
		p := set
		if i == 0 && prev != nil {
			p = prev
		}
		if err := c.ObserveFit(f.fit(start, set, p)); err != nil && !errors.Is(err, ErrRetriesExhausted) {
			t.Fatalf("window %d: ObserveFit: %v", start, err)
		}
		start++
		f.sim.Advance(1)
	}
	return start
}

func kinds(actions []Action) []string {
	out := make([]string, len(actions))
	for i, a := range actions {
		out[i] = a.Kind
	}
	return out
}

func hasKind(actions []Action, kind string) bool {
	for _, a := range actions {
		if a.Kind == kind {
			return true
		}
	}
	return false
}

func layoutsClose(a, b *layout.Layout) bool {
	if a.N != b.N || a.M != b.M {
		return false
	}
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.M; j++ {
			if math.Abs(a.At(i, j)-b.At(i, j)) > 1e-9 {
				return false
			}
		}
	}
	return true
}

// TestSteadyWorkloadZeroActions: under an unchanging workload the controller
// does nothing at all — no detections, no migrations, no journal growth past
// the cbegin record.
func TestSteadyWorkloadZeroActions(t *testing.T) {
	f := newCtFixture(t)
	var journal bytes.Buffer
	c, err := New(f.config(&journal, nil))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	afterBegin := journal.Len()
	f.feed(t, c, 0, 40, f.steady, nil)
	if got := c.Actions(); len(got) != 0 {
		t.Fatalf("steady workload produced actions: %v", kinds(got))
	}
	if st := c.Status(); st.Phase != PhaseObserving || st.Epoch != 0 {
		t.Fatalf("steady workload moved the controller: %+v", st)
	}
	if journal.Len() != afterBegin {
		t.Fatalf("steady workload grew the journal by %d bytes", journal.Len()-afterBegin)
	}
	if !layoutsClose(c.CurrentLayout(), f.initial) {
		t.Fatal("steady workload changed the layout")
	}
}

// TestDriftDetectMigrateCooldown drives the full loop once: steady → drift →
// detect → migrate → cooldown → observing, and cross-checks the journal
// recovers to the controller's own final state.
func TestDriftDetectMigrateCooldown(t *testing.T) {
	f := newCtFixture(t)
	var journal bytes.Buffer
	c, err := New(f.config(&journal, nil))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w := f.feed(t, c, 0, 3, f.steady, nil)
	w = f.feed(t, c, w, 1, f.drifted, f.steady)
	if !hasKind(c.Actions(), "detect") {
		t.Fatalf("drift transition not detected: %v", kinds(c.Actions()))
	}
	if !hasKind(c.Actions(), "migrate-start") {
		t.Fatalf("detection did not start a migration: %v", kinds(c.Actions()))
	}
	if st := c.Status(); st.Phase != PhaseMigrating {
		t.Fatalf("phase after migrate-start: %v", st.Phase)
	}
	// Feed drifted windows until the migration completes and cools down.
	for i := 0; i < 40 && c.Status().Phase != PhaseObserving; i++ {
		w = f.feed(t, c, w, 1, f.drifted, nil)
	}
	acts := c.Actions()
	if !hasKind(acts, "migrate-done") || !hasKind(acts, "cooldown-end") {
		t.Fatalf("loop did not complete: %v", kinds(acts))
	}
	if layoutsClose(c.CurrentLayout(), f.initial) {
		t.Fatal("migration did not change the layout")
	}
	// The cooldown windows between migrate-done and cooldown-end must match
	// the configured hysteresis.
	var doneW, endW int64
	for _, a := range acts {
		switch a.Kind {
		case "migrate-done":
			doneW = int64(a.Time)
		case "cooldown-end":
			endW = a.Window
		}
	}
	if endW <= doneW {
		t.Fatalf("cooldown-end window %d not after migrate-done at t=%d", endW, doneW)
	}

	ck, err := Recover(journal.Bytes())
	if err != nil {
		t.Fatalf("journal does not recover: %v", err)
	}
	if !layoutsClose(ck.Current, c.CurrentLayout()) {
		t.Fatal("journal recovers a different layout than the live controller")
	}
	if ck.Open != nil {
		t.Fatal("journal recovers an open epoch after completion")
	}
}

// TestResumeMidMigrationMatchesUninterrupted: crash the controller mid-copy,
// resume from the journal, and require the exact final layout of an
// uninterrupted run — exactly-once, no lost or duplicated work.
func TestResumeMidMigrationMatchesUninterrupted(t *testing.T) {
	runOnce := func(crashAfter int) (*layout.Layout, int) {
		f := newCtFixture(t)
		buf := &bytes.Buffer{}
		w := &chaosWriter{buf: buf, remaining: crashAfter}
		cfg := f.config(buf, nil)
		cfg.Journal = w
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		win := f.feed(t, c, 0, 3, f.steady, nil)
		win = f.feed(t, c, win, 1, f.drifted, f.steady)
		crashes := 0
		for i := 0; i < 120; i++ {
			if c.Crashed() {
				crashes++
				w2 := &chaosWriter{buf: buf, remaining: 1 << 30}
				cfg2 := f.config(buf, wal.TruncateTorn(buf.Bytes()))
				cfg2.Journal = w2
				c, err = New(cfg2)
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
			}
			if st := c.Status(); st.Phase == PhaseObserving && st.Epoch > 0 {
				break
			}
			win = f.feed(t, c, win, 1, f.drifted, nil)
		}
		if st := c.Status(); st.Phase != PhaseObserving || st.Epoch == 0 {
			t.Fatalf("crashAfter=%d: loop did not complete: %+v", crashAfter, st)
		}
		return c.CurrentLayout(), crashes
	}

	reference, crashes := runOnce(1 << 30)
	if crashes != 0 {
		t.Fatalf("reference run crashed %d times", crashes)
	}
	// Crash after 4 records: cbegin + cplan + the engine's first records —
	// squarely mid-migration.
	resumed, crashes := runOnce(4)
	if crashes == 0 {
		t.Fatal("crash injection did not fire")
	}
	if !layoutsClose(reference, resumed) {
		t.Fatalf("resumed run diverged from uninterrupted run:\n%v\nvs\n%v", reference, resumed)
	}
}

// TestCooldownDefersDetection: drift events during cooldown are logged as
// deferred and must not start a migration until the cooldown elapses.
func TestCooldownDefersDetection(t *testing.T) {
	f := newCtFixture(t)
	var journal bytes.Buffer
	c, err := New(f.config(&journal, nil))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w := f.feed(t, c, 0, 3, f.steady, nil)
	w = f.feed(t, c, w, 1, f.drifted, f.steady)
	for i := 0; i < 40 && c.Status().Phase != PhaseCooldown; i++ {
		w = f.feed(t, c, w, 1, f.drifted, nil)
	}
	if c.Status().Phase != PhaseCooldown {
		t.Fatalf("migration never completed: %+v", c.Status())
	}
	before := len(c.Actions())
	// Shift the workload back mid-cooldown: a fresh transition.
	w = f.feed(t, c, w, 1, f.steady, f.drifted)
	deferred := false
	for _, a := range c.Actions()[before:] {
		if a.Kind == "migrate-start" {
			t.Fatal("migration started during cooldown")
		}
		if a.Kind == "detect" && a.Detail == "deferred: cooldown" {
			deferred = true
		}
	}
	if !deferred {
		t.Fatalf("cooldown detection not logged as deferred: %v", kinds(c.Actions()[before:]))
	}
}

// TestAllDevicesFailGivesUp: with every device failing once the migration
// starts, each attempt aborts (or each re-advise fails) until the retry
// budget is spent; the controller journals the give-up and keeps running.
func TestAllDevicesFailGivesUp(t *testing.T) {
	f := newCtFixture(t)
	for j := range f.sim.devs {
		f.sim.devs[j].FailAt = 3.5 // after the steady prefix, before the migration
	}
	var journal bytes.Buffer
	c, err := New(f.config(&journal, nil))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w := f.feed(t, c, 0, 3, f.steady, nil)
	w = f.feed(t, c, w, 1, f.drifted, f.steady)
	for i := 0; i < 80 && !hasKind(c.Actions(), "give-up"); i++ {
		w = f.feed(t, c, w, 1, f.drifted, nil)
	}
	if !hasKind(c.Actions(), "give-up") {
		t.Fatalf("retry budget never exhausted: %v", kinds(c.Actions()))
	}
	if c.Crashed() {
		t.Fatalf("give-up crashed the controller: %v", c.Err())
	}
	if st := c.Status(); st.Attempt != 1 {
		t.Fatalf("attempt counter not reset after give-up: %+v", st)
	}
	// The journal must still recover cleanly after the failed episode.
	if _, err := Recover(wal.TruncateTorn(journal.Bytes())); err != nil {
		t.Fatalf("journal after give-up: %v", err)
	}
}

// TestSkipReturnsToObserving: a gated re-advise returns the loop to the
// observing phase, in particular out of a zeroed backoff.
func TestSkipReturnsToObserving(t *testing.T) {
	f := newCtFixture(t)
	var journal bytes.Buffer
	c, err := New(f.config(&journal, nil))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.setPhase(PhaseBackoff)
	c.skip(f.fit(0, f.steady, nil), "retry", 0, "test")
	if c.phase != PhaseObserving {
		t.Fatalf("skip left phase %v", c.phase)
	}
}

// TestBackoffDelayShape: deterministic, nondecreasing in the attempt number,
// capped, and jittered within [0, base].
func TestBackoffDelayShape(t *testing.T) {
	f := newCtFixture(t)
	var journal bytes.Buffer
	c, err := New(f.config(&journal, nil))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	base := c.cfg.BaseBackoffWindows
	cap := c.cfg.MaxBackoffWindows
	prevFloor := 0
	for attempt := 2; attempt <= 8; attempt++ {
		d := c.backoffDelay(attempt)
		if d2 := c.backoffDelay(attempt); d2 != d {
			t.Fatalf("attempt %d: backoff not deterministic (%d vs %d)", attempt, d, d2)
		}
		floor := base
		for i := 2; i < attempt && floor < cap; i++ {
			floor *= 2
		}
		if floor > cap {
			floor = cap
		}
		if d < floor || d > floor+base {
			t.Fatalf("attempt %d: delay %d outside [%d, %d]", attempt, d, floor, floor+base)
		}
		if floor < prevFloor {
			t.Fatalf("attempt %d: backoff floor decreased", attempt)
		}
		prevFloor = floor
	}
}

// TestNewValidation: required config and resume identity checks.
func TestNewValidation(t *testing.T) {
	f := newCtFixture(t)
	var journal bytes.Buffer
	good := f.config(&journal, nil)

	c := good
	c.Instance = nil
	if _, err := New(c); err == nil {
		t.Fatal("nil Instance accepted")
	}
	c = good
	c.IO = nil
	if _, err := New(c); err == nil {
		t.Fatal("nil IO accepted")
	}
	c = good
	c.Current = nil
	if _, err := New(c); err == nil {
		t.Fatal("fresh start without Current accepted")
	}

	// Valid fresh start, then resume under a different seed must refuse.
	ctrl, err := New(good)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_ = ctrl
	c = good
	c.Resume = append([]byte(nil), journal.Bytes()...)
	c.Seed = good.Seed + 1
	if _, err := New(c); err == nil {
		t.Fatal("resume with mismatched seed accepted")
	}
}
